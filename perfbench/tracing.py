"""Spans and counters recorded around the calls into each ugt layer.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces a public layer function in every ``ugt`` module that binds it (a
name imported with ``from .lp import solve_feasibility`` is a separate
binding in each importing module) and ``uninstall`` puts the originals
back.  Untraced runs never call ``install``.

Spans are kept in memory as ``[id, parent, name, start, end]`` and written
out once, when the run ends.  The hottest primitives (``play_out``,
``reaches``) get a call counter and no span, so that tracing does not
swamp what it measures.
"""

from __future__ import annotations

import collections
import importlib
import json
import sys
import time
from typing import Callable, Optional

from stats import self_times

# (module that defines it, function, span name); the span name doubles as
# the per-layer metric prefix
SPANNED = [
    ("ugt.cli", "main", "cli.self"),
    ("ugt.gamedoc", "parse_game", "gamedoc.parse"),
    ("ugt.gamedoc", "serialize_game", "gamedoc.serialize"),
    ("ugt.gamedoc", "game_dot", "gamedoc.serialize"),
    ("ugt.core", "validate_game", "core.validate"),
    ("ugt.rationalizability", "efr", "rationalizability.efr"),
    ("ugt.lp", "solve_feasibility", "lp.solve"),
    ("ugt.strategies", "pure_strategies", "strategies.pure_strategies"),
    ("ugt.strategies", "kuhn_convert", "strategies.kuhn_convert"),
    ("ugt.discovery", "build_supergame", "discovery.build_supergame"),
    ("ugt.discovery", "discovered_version", "discovery.discovered_version"),
    ("ugt.discovery", "run_discovery", "discovery.run_discovery"),
    ("ugt.equilibrium", "check_sce_pure", "equilibrium.check_sce_pure"),
    ("ugt.equilibrium", "check_sce_behavior", "equilibrium.check_sce_behavior"),
    ("ugt.equilibrium", "check_sce_efr", "equilibrium.check_sce_efr"),
    ("ugt.equilibrium", "construct_sce_efr", "equilibrium.construct_sce_efr"),
]

COUNTED = [
    ("ugt.strategies", "play_out", "strategies.play_out_calls"),
    ("ugt.strategies", "reaches", "strategies.reaches_calls"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn: Callable, after: Optional[Callable]):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapped(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, clock(), None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, out)
            return out
        return wrapped

    def _counted(self, name: str, fn: Callable):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def parent_name(self) -> Optional[str]:
        return self.spans[self.stack[-1]][2] if self.stack else None

    def install(self) -> None:
        wrappers = {}
        for mod, attr, name in SPANNED:
            fn = getattr(importlib.import_module(mod), attr)
            wrappers[fn] = self._spanned(name, fn, _AFTER.get(name))
        for mod, attr, name in COUNTED:
            fn = getattr(importlib.import_module(mod), attr)
            wrappers[fn] = self._counted(name, fn)
        # allowed_profiles only feeds counters, so it gets no span
        fn = importlib.import_module("ugt.discovery").allowed_profiles
        wrappers[fn] = _count_profiles(self, fn)
        for mname, module in list(sys.modules.items()):
            if mname != "ugt" and not mname.startswith("ugt."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: self seconds and calls per span name, plus the
        counters."""
        out: dict[str, float] = {}
        for name, secs in self_times(self.spans).items():
            out[name + "_s"] = secs
        calls = collections.Counter(rec[2] for rec in self.spans)
        for name, n in calls.items():
            out[name + "_calls"] = n
        out.update(self.counts)
        out["lp.solves"] = out.get("lp.solve_calls", 0)
        # useful supergame edges per profile the supergame walked
        walked = out.get("discovery.supergame_profiles", 0)
        out["discovery.edges_per_profile"] = \
            out.get("discovery.supergame_edges", 0) / walked if walked else 0.0
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans, "counts": dict(self.counts)}, f)


def _after_lp(tr: Tracer, args, kwargs, out) -> None:
    n = args[0] if args else kwargs["n"]
    names = ("n", "a_eq", "b_eq", "a_ub", "b_ub")
    given = dict(zip(names, args))
    given.update(kwargs)
    rows = len(given.get("a_eq", ())) + len(given.get("a_ub", ()))
    tr.counts["lp.cells"] += rows * n
    if out is None:
        tr.counts["lp.infeasible"] += 1


def _after_efr(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["rationalizability.rounds"] += out.fixpoint_round


def _after_supergame(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["discovery.supergame_states"] += len(out.states)
    tr.counts["discovery.supergame_edges"] += sum(
        len(e) for e in out.edges.values())


def _count_profiles(tr: Tracer, fn: Callable):
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        tr.counts["discovery.profiles_enumerated"] += len(out)
        if tr.parent_name() == "discovery.build_supergame":
            tr.counts["discovery.supergame_profiles"] += len(out)
        return out
    return wrapped


_AFTER = {
    "lp.solve": _after_lp,
    "rationalizability.efr": _after_efr,
    "discovery.build_supergame": _after_supergame,
}
