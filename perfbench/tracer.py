"""Per-layer trace of one plent CLI job, taken from outside the program.

`Tracer` wraps every public function of the nine plent layers and
installs each wrapper in every ``plent`` module namespace that holds the
function, so calls through re-exports and ``from .x import f`` bindings are
traced too (``plent.entropy.verify_horseshoe`` as ``find_horseshoe`` calls
it, ``plent.invlim.separated_count``, ``plent.relation.compose``, ...).
Leaving the ``with`` block puts every attribute back.

Each wrapped function records calls, inclusive time, self time (its span
minus its child spans) and errors; a few wrappers also count the work a
call did, such as chains tried in ``next_family``.  ``PLMap.__call__`` is
only counted, never timed.

``cli_job.py --trace`` runs one CLI job under a `Tracer`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

LAYERS = ("plmap", "relation", "families", "branch", "entropy", "invlim", "blocks", "serialize", "cli")

# the coercion helper runs inside every map evaluation; a timing wrapper
# there would cost more than the work it measures
UNTIMED = {"plmap.as_rat"}


@dataclass
class Stats:
    calls: int = 0
    ns: int = 0  # inclusive; a recursive call is counted once
    self_ns: int = 0
    errors: int = 0
    active: int = 0


def _count_next_family(counts, args, result):
    counts["branch.chains_tried"] += len(args["base"]) * len(args["fam"])
    counts["branch.arcs_out"] += len(result)


def _count_verify_horseshoe(counts, args, result):
    counts["entropy.verify_horseshoe.arc_intervals"] += len(args["rel"].arcs) * len(args["intervals"])


def _count_find_horseshoe(counts, args, result):
    counts["entropy.horseshoe.found"] += result is not None


def _count_pairs(counts, args, result):
    n = len(args["points"])
    counts["entropy.pairs"] += n * (n - 1) // 2


OBSERVERS = {
    "branch.next_family": _count_next_family,
    "entropy.verify_horseshoe": _count_verify_horseshoe,
    "entropy.find_horseshoe": _count_find_horseshoe,
    "entropy.separated_count": _count_pairs,
    "entropy.spanning_count": _count_pairs,
    "entropy.enumerate_orbits": lambda c, a, r: c.update({"entropy.orbits_out": len(r.orbits)}),
    "plmap.iterate": lambda c, a, r: c.update({"plmap.iterate.breakpoints_out": len(r.breakpoints)}),
    "relation.param_graph": lambda c, a, r: c.update({"relation.param_graph.arcs_out": len(r.arcs)}),
}


class Tracer:
    def __init__(self):
        self.functions: dict[str, Stats] = {}
        self.layers: dict[str, Stats] = {layer: Stats() for layer in LAYERS}
        self.counts: Counter[str] = Counter()
        self._stack: list[list[int]] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"plent.{layer}")
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNTIMED
                ):
                    wrappers[id(fn)] = (fn, self._timed(layer, name, fn))
        namespaces = [m for n, m in sys.modules.items() if n == "plent" or n.startswith("plent.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patch(module, attr, wrapper)
        plmap_cls = sys.modules["plent.plmap"].PLMap
        self._patch(plmap_cls, "__call__", self._counted("plmap.eval.calls", plmap_cls.__call__))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, layer: str, name: str, fn):
        stats = self.functions.setdefault(name, Stats())
        layer_stats = self.layers[layer]
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn)
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0]
            stack.append(children)
            stats.active += 1
            layer_stats.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.self_ns += dt - children[0]
                stats.active -= 1
                layer_stats.active -= 1
                if not stats.active:
                    stats.ns += dt
                if not layer_stats.active:
                    layer_stats.ns += dt
            if observe is not None:
                observe(counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {
            "functions": {k: asdict(v) for k, v in self.functions.items() if v.calls},
            "layers": {k: asdict(v) for k, v in self.layers.items()},
            "counts": dict(self.counts),
        }


# name -> unit of every per-layer metric; trace.overhead_ratio needs the
# untraced job time as well and is added by run.py
PER_LAYER_UNITS = {
    "branch.next_family.s": "s",
    "branch.chains_tried": "count",
    "branch.arcs_out": "count",
    "branch.keep_ratio": "ratio",
    "branch.us_per_chain": "us",
    "branch.chain.calls": "count",
    "branch.chain.s": "s",
    "entropy.find_horseshoe.s": "s",
    "entropy.verify_horseshoe.s": "s",
    "entropy.verify_horseshoe.calls": "count",
    "entropy.verify_horseshoe.arc_intervals": "count",
    "entropy.horseshoe.found_per_verify": "ratio",
    "plmap.iterate.s": "s",
    "plmap.iterate.breakpoints_out": "count",
    "plmap.compose.s": "s",
    "relation.param_graph.s": "s",
    "relation.param_graph.arcs_out": "count",
    "entropy.separated_count.s": "s",
    "entropy.spanning_count.s": "s",
    "entropy.pairs": "count",
    "entropy.enumerate_orbits.s": "s",
    "entropy.orbits_out": "count",
    "relation.fiber_intervals.calls": "count",
    "invlim.apply_diagonal.s": "s",
    "invlim.apply_diagonal.calls": "count",
    "invlim.entropy_estimate_diagonal.self_s": "s",
    "plmap.eval.calls": "count",
    "blocks.level_report.self_s": "s",
    "families.s": "s",
    "relation.compose_rel.s": "s",
    "relation.strongly_commutes.s": "s",
    "cli.main.self_s": "s",
    "serialize.dumps.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.errors": "count",
    "trace.overhead_ratio": "ratio",
}


# suffix of a function metric -> (Stats field, scale to the metric's unit)
_FIELDS = {"s": ("ns", 1e-9), "self_s": ("self_ns", 1e-9), "calls": ("calls", 1)}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_ratio, from one trace."""
    functions, counts = trace["functions"], trace["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    chains = counts.get("branch.chains_tried", 0)
    next_family_s = functions.get("branch.next_family", {}).get("ns", 0) * 1e-9
    verify_calls = functions.get("entropy.verify_horseshoe", {}).get("calls", 0)
    out = {
        "branch.keep_ratio": ratio(counts.get("branch.arcs_out", 0), chains),
        "branch.us_per_chain": ratio(next_family_s * 1e6, chains),
        "entropy.horseshoe.found_per_verify": ratio(counts.get("entropy.horseshoe.found", 0), verify_calls),
        "families.s": trace["layers"]["families"]["ns"] * 1e-9,
        "trace.errors": sum(f["errors"] for f in functions.values()),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 1e-9 * sum(
            f["self_ns"] for name, f in functions.items() if name.startswith(layer + ".")
        )
    for name in PER_LAYER_UNITS:
        if name in out or name == "trace.overhead_ratio":
            continue
        function, _, suffix = name.rpartition(".")
        if suffix in _FIELDS and name not in counts:
            field, scale = _FIELDS[suffix]
            out[name] = functions.get(function, {}).get(field, 0) * scale
        else:
            out[name] = counts.get(name, 0)
    return out

