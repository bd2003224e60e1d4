"""Spans around the calls into each layer, recorded from outside the program.

A traced round replaces the public functions listed in ``WRAPS`` with
wrappers that record a span (name, start, end, parent span) and, for some
names, a counter read from the result.  Each name is wrapped where its
caller looks it up: the benchmark calls the package namespace, the cover
code calls ``max_row_cover`` and the transducer helpers through the
``heuristics`` module, ``smallest_torus`` calls ``count_torus`` through the
``exact`` module.  A name that no longer exists is reported as absent.

Spans stay in memory until the run ends and are then written with
``Tracer.dump``.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("heuristics", "transducer", "tileset", "exact", "ilp")


def _cover_counts(tr, result):
    tr.count("heuristics.line_solves", getattr(result, "iterations", None))
    tr.count("heuristics.sweeps", getattr(result, "sweeps", None))


def _dag_edges(tr, dag):
    columns = getattr(dag, "columns", None)
    tr.count("heuristics.dag_tile_edges",
             None if columns is None else sum(len(c) for c in columns))


def _states(tr, res):
    tr.count("exact.solve_decision.states", getattr(res, "stats", {}).get("states"))


def _torus(tr, result):
    tr.count("exact.torus_tilings", result[0])


def _nodes(tr, res):
    tr.count("exact.pack_tiles.nodes", getattr(res, "stats", {}).get("nodes"))


def _nonzeros(tr, model):
    cons = getattr(model, "constraints", None)
    tr.count("ilp.nonzeros", None if cons is None else sum(len(c.terms) for c in cons))


def _lp_bytes(tr, text):
    tr.count("ilp.lp_bytes", len(text.encode()))


# (module, attribute, span name, counter hook)
WRAPS = (
    ("wangtiler", "alg4_improve", "heuristics.alg4_improve", _cover_counts),
    ("wangtiler.heuristics", "max_row_cover", "heuristics.max_row_cover", None),
    ("wangtiler.heuristics", "build_layered_dag", "heuristics.build_layered_dag", _dag_edges),
    ("wangtiler.heuristics", "shortest_row", "heuristics.shortest_row", None),
    ("wangtiler.heuristics", "build_transducer", "transducer.build_transducer", None),
    ("wangtiler.heuristics", "all_states_on_cycles", "transducer.all_states_on_cycles", None),
    ("wangtiler.heuristics", "longest_path_at_least", "transducer.longest_path_at_least", None),
    ("wangtiler.heuristics", "reachable_sets", "transducer.reachable_sets", None),
    ("wangtiler.tileset:TileSet", "reflected", "tileset.reflected", None),
    ("wangtiler", "solve_decision", "exact.solve_decision", _states),
    ("wangtiler.exact", "solve_decision", "exact.solve_decision", _states),
    ("wangtiler", "count_torus", "exact.count_torus", _torus),
    ("wangtiler.exact", "count_torus", "exact.count_torus", _torus),
    ("wangtiler", "smallest_torus", "exact.smallest_torus", None),
    ("wangtiler", "pack_tiles", "exact.pack_tiles", _nodes),
    ("wangtiler", "max_cover_oracle", "exact.max_cover_oracle", None),
    ("wangtiler.exact", "max_cover_oracle", "exact.max_cover_oracle", None),
    ("wangtiler.ilp", "build_model", "ilp.build_model", _nonzeros),
    ("wangtiler.ilp", "emit_lp", "ilp.emit_lp", _lp_bytes),
    ("wangtiler.ilp", "parse_lp", "ilp.parse_lp", None),
    ("wangtiler.ilp", "evaluate_assignment", "ilp.evaluate_assignment", None),
)

#: per-layer metric -> (unit, span names or counters it is made from)
PER_LAYER = {
    "heuristics.max_row_cover.calls": ("count", ("heuristics.max_row_cover",)),
    "heuristics.line_solves": ("count", ("heuristics.line_solves",)),
    "heuristics.sweeps": ("count", ("heuristics.sweeps",)),
    "heuristics.build_layered_dag.s": ("s", ("heuristics.build_layered_dag",)),
    "heuristics.dag_tile_edges": ("count", ("heuristics.dag_tile_edges",)),
    "heuristics.shortest_row.s": ("s", ("heuristics.shortest_row",)),
    "heuristics.cover_self_s": ("s", ("heuristics.alg4_improve", "heuristics.max_row_cover")),
    "heuristics.self_s": ("s", ()),
    "transducer.build_transducer.calls": ("count", ("transducer.build_transducer",)),
    "transducer.build_transducer.s": ("s", ("transducer.build_transducer",)),
    "transducer.analysis_s": ("s", ("transducer.all_states_on_cycles",
                                    "transducer.longest_path_at_least",
                                    "transducer.reachable_sets")),
    "transducer.self_s": ("s", ()),
    "tileset.reflected.calls": ("count", ("tileset.reflected",)),
    "tileset.reflected.s": ("s", ("tileset.reflected",)),
    "tileset.self_s": ("s", ()),
    "exact.solve_decision.s": ("s", ("exact.solve_decision",)),
    "exact.solve_decision.states": ("count", ("exact.solve_decision.states",)),
    "exact.solve_decision.states_per_s": ("1/s", ("exact.solve_decision",
                                                  "exact.solve_decision.states")),
    "exact.count_torus.calls": ("count", ("exact.count_torus",)),
    "exact.count_torus.s": ("s", ("exact.count_torus",)),
    "exact.torus_tilings": ("count", ("exact.torus_tilings",)),
    "exact.pack_tiles.nodes": ("count", ("exact.pack_tiles.nodes",)),
    "exact.pack_tiles.nodes_per_s": ("1/s", ("exact.pack_tiles", "exact.pack_tiles.nodes")),
    "exact.max_cover_oracle.s": ("s", ("exact.max_cover_oracle",)),
    "exact.self_s": ("s", ()),
    "ilp.build_model.s": ("s", ("ilp.build_model",)),
    "ilp.emit_lp.s": ("s", ("ilp.emit_lp",)),
    "ilp.nonzeros": ("count", ("ilp.nonzeros",)),
    "ilp.lp_bytes": ("count", ("ilp.lp_bytes",)),
    "ilp.build_model.nonzeros_per_s": ("1/s", ("ilp.build_model", "ilp.nonzeros")),
    "ilp.parse_lp.s": ("s", ("ilp.parse_lp",)),
    "ilp.evaluate_assignment.s": ("s", ("ilp.evaluate_assignment",)),
    "ilp.self_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span store plus the installed wrappers of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # inside a span of the same name
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.enabled = False
        self._stack: list[int] = []
        self._depth: dict[int, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(self._depth[nid] > 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name[idx]] -= 1

    def count(self, counter: str, value) -> None:
        if value is None:
            self.absent.add(counter)
        else:
            self.counters[counter] += value

    # -- wrappers -------------------------------------------------------------

    def install(self) -> None:
        for path, attr, name, hook in WRAPS:
            owner = _resolve(path)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.add(name)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(fn, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrapper(self, fn, name: str, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None and not tracer.nested[idx]:
                hook(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- summary --------------------------------------------------------------

    def metrics(self, rounds: int, overhead_s: float) -> tuple[dict[str, dict], list[str]]:
        """Per-layer metrics per traced round, and the metrics whose function
        or result field no longer exists (reported as 0)."""
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int32)[:n] if n else np.zeros(0, np.int32)
        dur = (np.array(self.end) - np.array(self.start)) if n else np.zeros(0)
        parent = np.array(self.parent, dtype=np.int64) if n else np.zeros(0, np.int64)
        top = ~np.array(self.nested, dtype=bool) if n else np.zeros(0, bool)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        layer_of = np.array([nm.split(".")[0] for nm in self.names] or [""])

        incl = {nm: float(dur[(name == i) & top].sum()) for i, nm in enumerate(self.names)}
        calls = {nm: int(((name == i) & top).sum()) for i, nm in enumerate(self.names)}
        layer_self = {layer: float(self_time[layer_of[name] == layer].sum()) if n else 0.0
                      for layer in LAYERS}

        def value(metric: str) -> float:
            if metric == "trace.overhead_s":
                return overhead_s
            if metric.endswith(".self_s") and metric.split(".")[0] in LAYERS:
                return layer_self[metric.split(".")[0]]
            if metric == "heuristics.cover_self_s":
                return incl.get("heuristics.alg4_improve", 0.0) - incl.get("heuristics.max_row_cover", 0.0)
            if metric == "transducer.analysis_s":
                return sum(incl.get(s, 0.0) for s in PER_LAYER[metric][1])
            if metric.endswith("_per_s"):
                span, counter = PER_LAYER[metric][1]
                return self.counters[counter] / incl[span] if incl.get(span) else 0.0
            if metric.endswith(".calls"):
                return calls.get(PER_LAYER[metric][1][0], 0)
            if metric.endswith(".s"):
                return incl.get(PER_LAYER[metric][1][0], 0.0)
            return self.counters.get(PER_LAYER[metric][1][0], 0.0)

        out, absent = {}, []
        for metric, (unit, sources) in PER_LAYER.items():
            v = value(metric)
            if unit != "1/s" and metric != "trace.overhead_s":
                v /= rounds
            out[metric] = {"value": v, "unit": unit}
            if any(s in self.absent for s in sources):
                absent.append(metric)
        return out, absent

    def dump(self, path) -> None:
        n = len(self.name)
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32)[:n].copy() if n else np.zeros(0, np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start), end=np.array(self.end))
