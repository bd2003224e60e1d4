"""Inputs and operations of each workload.

An operation is one call, or one short chain of calls, into the public API:
one cover run, one decision solve, one torus count, one packing, one oracle
call, or one model round trip (build, emit, parse, evaluate).  Each
operation carries its own check.  Everything a check needs from HiGHS or a
transfer-matrix count is computed once, on first use, outside the timed
calls.

Every workload holds operations of all six families, because every run
reports every end-to-end metric.  A workload's focus families get the sizes
chosen for it; the others get a small "probe" size, the same on every
workload, repeated and spread through the round so that their samples are
taken at different moments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import wangtiler as wt
import wangtiler.ilp as ilp

import checks

FAMILIES = ("cover", "decide", "torus", "pack", "oracle", "ilp")

#: family -> instance size per workload ("probe" everywhere not listed).
#: Two workloads of 15-25 s per round: the run budget allows 40-second
#: runs for two workloads, and the host's speed drifts by about 20 %
#: between 15-second windows, less between longer ones.
FOCUS = {
    "table-exact": {"cover": "table", "decide": "full", "torus": "full",
                    "pack": "full", "oracle": "full"},
    "large-ilp": {"cover": "large", "ilp": "full"},
}

#: seeds per cover block; --seed s takes seeds s*N .. s*N+N-1
TABLE_SEEDS = 25
PROBE_SEEDS = 50
#: the large covers use fixed seeds: at 100x100 the improvement sweeps, and
#: so the run time, vary too much from seed to seed to average in one run
LARGE_SEEDS = (0, 1, 2, 3)
#: published averages of algorithm 1 with improvement at 20x20
PAPER_AVG = {"finite1": 360.71, "ammann16": 366.09}


#: families whose checks need HiGHS or a transfer-matrix count; the runner
#: checks their outputs after it has read the program's peak memory
DEFERRED = ("decide", "torus", "oracle")
#: each probe operation runs this many times per round
PROBE_REPEATS = 5


@dataclass
class Op:
    family: str
    label: str
    run: Callable[[], tuple[object, dict[str, float]]]
    check: Callable[[object], str | None]
    cells: int = 0

    @property
    def deferred(self) -> bool:
        return self.family in DEFERRED


@dataclass
class Plan:
    ops: list[Op]
    #: (labels, check over {label: placed}) run once per round
    groups: list[tuple[list[str], Callable[[dict], str | None]]] = field(default_factory=list)


def _timed(phase: str, call: Callable[[], object]):
    def run():
        t0 = time.perf_counter()
        out = call()
        return out, {phase: time.perf_counter() - t0}
    return run


def _once(compute: Callable[[], object]) -> Callable[[], object]:
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]
    return get


class _Relabeled:
    """A tile set with its colors permuted and, unless ``keep_order``, its
    tile ids shuffled.  The problem is the same one under new names, so the
    work of the exact engines does not change with the seed; their outputs
    do."""

    def __init__(self, ts: wt.TileSet, rng: np.random.Generator, keep_order: bool = False):
        q = checks.quads_of(ts)
        self.colors = rng.permutation(ts.num_colors)
        self.order = np.arange(len(q)) if keep_order else rng.permutation(len(q))
        self.new_id = np.argsort(self.order)
        self.quads = self.colors[q][self.order]
        self.ts = wt.TileSet((wt.Tile(*map(int, t)) for t in self.quads),
                             num_colors=ts.num_colors, name=ts.name)


# -- cover --------------------------------------------------------------------

def _cover_ops(sets: dict[str, wt.TileSet], size: int, inits, seeds) -> list[Op]:
    ops = []
    for name, ts in sets.items():
        quads = checks.quads_of(ts)
        complete = name.startswith("complete")
        for init in inits:
            for s in seeds:
                def call(ts=ts, init=init, s=s):
                    return wt.alg4_improve(ts, size, size, init, s)

                def check(run, ts=ts, quads=quads, complete=complete):
                    bad = checks.check_cover(quads, run, size, size, complete)
                    if bad is None and not wt.validate_tiling(ts, run.tiling).is_valid:
                        bad = "validate_tiling rejects the tiling"
                    return bad
                ops.append(Op("cover", f"cover {name} {size}x{size} {init} seed {s}",
                              _timed("cover", call), check, size * size))
    return ops


def _paper_band(name: str, labels: list[str]):
    def check(placed: dict) -> str | None:
        avg = sum(placed[lb] for lb in labels) / len(labels)
        lo, hi = 0.95 * PAPER_AVG[name], 1.05 * PAPER_AVG[name]
        return None if lo <= avg <= hi else f"{name} average {avg:.2f} outside [{lo:.2f}, {hi:.2f}]"
    return check


def cover_ops(size_name: str, seed: int) -> tuple[list[Op], list]:
    if size_name == "table":
        sets = {n: wt.builtin_set(n) for n in ("ammann16", "finite1", "finite2")}
        sets["complete4"] = wt.complete_stochastic_set(4)
        seeds = range(seed * TABLE_SEEDS, (seed + 1) * TABLE_SEEDS)
        ops = _cover_ops(sets, 20, ("simple", "half", "twothirds"), seeds)
        groups = []
        for name in PAPER_AVG:
            labels = [op.label for op in ops if op.label.startswith(f"cover {name} 20x20 simple ")]
            groups.append((labels, _paper_band(name, labels)))
        return ops, groups
    if size_name == "large":
        sets = {n: wt.builtin_set(n) for n in ("ammann16", "finite1")}
        return _cover_ops(sets, 100, ("simple",), LARGE_SEEDS), []
    sets = {"finite1": wt.builtin_set("finite1"), "complete2": wt.complete_stochastic_set(2)}
    seeds = range(seed * PROBE_SEEDS, (seed + 1) * PROBE_SEEDS)
    return _cover_ops(sets, 10, ("simple",), seeds), []


# -- exact engines ------------------------------------------------------------

def _allowed(rl: _Relabeled, h: int, w: int, conds) -> tuple[np.ndarray, list]:
    """Per-cell conditions as a mask and as wangtiler extensions.

    ``conds`` uses the unrelabeled ids and colors: ("force"|"forbid", i, j, k)
    or ("forcecol"|"forbidcol", i, j, side, color), 1-based cells.
    """
    allowed = np.ones((h, w, len(rl.quads)), dtype=bool)
    side_col = {"n": 0, "w": 1, "s": 2, "e": 3}
    bcs = []
    for kind, i, j, *rest in conds:
        cell = allowed[i - 1, j - 1]
        if kind in ("force", "forbid"):
            k = int(rl.new_id[rest[0]])
            hit = np.arange(len(rl.quads)) == k
            bcs.append((wt.ForceTile if kind == "force" else wt.ForbidTile)(i, j, k))
        else:
            side, color = rest[0], int(rl.colors[rest[1]])
            hit = rl.quads[:, side_col[side]] == color
            bcs.append((wt.ForceEdgeColor if kind == "forcecol" else wt.ForbidEdgeColor)(i, j, side, color))
        cell &= hit if kind.startswith("force") else ~hit
    return allowed, bcs


def decide_ops(size_name: str, rng: np.random.Generator) -> list[Op]:
    if size_name == "full":
        cases = [("finite1", 15, 12, ()), ("finite2", 10, 10, ()), ("ammann16", 8, 8, ()),
                 ("ammann16", 8, 11, (("force", 1, 1, 0), ("forbid", 8, 11, 5),
                                      ("forcecol", 2, 10, "s", 3), ("forbidcol", 8, 3, "e", 2)))]
    else:
        cases = [("finite1", 8, 5, ()), ("ammann16", 5, 5, ())]
    ops = []
    for name, h, w, conds in cases:
        rl = _Relabeled(wt.builtin_set(name), rng)
        allowed, bcs = _allowed(rl, h, w, conds)
        highs = _once(lambda rl=rl, h=h, w=w, allowed=allowed:
                      checks.highs_decision(rl.quads, h, w, allowed))

        def call(rl=rl, h=h, w=w, bcs=bcs):
            return wt.solve_decision(rl.ts, h, w, bcs)

        def check(res, rl=rl, h=h, w=w, allowed=allowed, highs=highs):
            return checks.check_decision(rl.quads, res, h, w, allowed,
                                         highs=lambda *_: highs())
        label = f"decide {name} {h}x{w}" + (" conditions" if conds else "")
        ops.append(Op("decide", label, _timed("decide", call), check))
    return ops


def _corner_ammann() -> wt.TileSet:
    """The Wang set of the ammann16 horizontal corner translation."""
    tr = wt.translate_horizontal(wt.builtin_set("ammann16"))
    return wt.corner_to_wang(tr.corners, tr.n_vc)


def torus_ops(size_name: str, rng: np.random.Generator) -> list[Op]:
    shapes = [(3, 3), (2, 4)] if size_name == "full" else [(2, 3)]
    ops = []
    c2 = wt.complete_stochastic_set(2)
    for h, w in shapes:
        rl = _Relabeled(c2, rng)
        expected = 2 ** (2 * h * w)
        counted = _once(lambda rl=rl, h=h, w=w: checks.torus_count(rl.quads, h, w))

        def check(result, rl=rl, h=h, w=w, expected=expected, counted=counted):
            if counted() != expected:
                return "transfer-matrix count disagrees with n_c^(2hw)"
            return checks.check_torus_count(rl.quads, result, h, w, expected)
        ops.append(Op("torus", f"torus complete2 {h}x{w}",
                      _timed("torus", lambda rl=rl, h=h, w=w: wt.count_torus(rl.ts, h, w)),
                      check))
    rl = _Relabeled(_corner_ammann(), rng)
    reference = _once(lambda: checks.smallest_torus_reference(rl.quads, 6))
    ops.append(Op("torus", "smallest torus ammann16 corners area<=6",
                  _timed("torus", lambda: wt.smallest_torus(rl.ts, 6)),
                  lambda res: checks.check_smallest_torus(rl.quads, res, reference())))
    return ops


def pack_ops(size_name: str, rng: np.random.Generator) -> list[Op]:
    periodic = size_name == "full"
    # colors are renamed but tile order is kept: packing tries tiles in id
    # order, so a shuffle would change the search, not just the names
    rl = _Relabeled(wt.complete_stochastic_set(3), rng, keep_order=True)
    return [Op("pack", f"pack complete3 9x9 {'periodic' if periodic else 'open'}",
               _timed("pack", lambda: wt.pack_tiles(rl.ts, 9, 9, periodic=periodic,
                                                    most_constrained=True)),
               lambda res: checks.check_pack(rl.quads, res, 9, 9, periodic))]


def oracle_ops(size_name: str, rng: np.random.Generator) -> list[Op]:
    cases = ([("finite1", 6, 6), ("ammann16", 5, 5)] if size_name == "full"
             else [("finite1", 4, 4), ("ammann16", 3, 3)])
    ops = []
    for name, h, w in cases:
        rl = _Relabeled(wt.builtin_set(name), rng)
        optimum = _once(lambda rl=rl, h=h, w=w: checks.highs_max_cover(rl.quads, h, w))
        ops.append(Op("oracle", f"oracle {name} {h}x{w}",
                      _timed("oracle", lambda rl=rl, h=h, w=w: wt.max_cover_oracle(rl.ts, h, w)),
                      lambda res, rl=rl, h=h, w=w, optimum=optimum:
                      checks.check_oracle(rl.quads, res, h, w, optimum())))
    return ops


# -- ILP round trips ----------------------------------------------------------

def greedy_partial(quads: np.ndarray, h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    """Row-major greedy tiling: the first tile, in a seeded order, that
    matches the placed west and north neighbors, else VOID."""
    cells = np.full((h, w), checks.VOID, dtype=np.int64)
    for i in range(h):
        for j in range(w):
            for k in rng.permutation(len(quads)):
                west = cells[i, j - 1] if j else checks.VOID
                north = cells[i - 1, j] if i else checks.VOID
                if ((west == checks.VOID or quads[west, 3] == quads[k, 1])
                        and (north == checks.VOID or quads[north, 2] == quads[k, 0])):
                    cells[i, j] = k
                    break
    return cells


def top_row(quads: np.ndarray, h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    """A valid full first row found by depth-first search, VOID below."""
    order = rng.permutation(len(quads))
    row: list[int] = []

    def extend() -> bool:
        if len(row) == w:
            return True
        for k in order:
            if not row or quads[row[-1], 3] == quads[k, 1]:
                row.append(int(k))
                if extend():
                    return True
                row.pop()
        return False

    if not extend():
        raise ValueError("the set has no row of this width")
    cells = np.full((h, w), checks.VOID, dtype=np.int64)
    cells[0] = row
    return cells


def complete_tiling(n_c: int, h: int, w: int, rng: np.random.Generator,
                    periodic: bool = False) -> np.ndarray:
    """A valid full tiling of the complete set: draw every edge color, then
    look each cell's tile up by its (n, w, s, e) index."""
    hor = rng.integers(0, n_c, (h + 1, w))
    ver = rng.integers(0, n_c, (h, w + 1))
    if periodic:
        hor[h], ver[:, w] = hor[0], ver[:, 0]
    n, s = hor[:-1], hor[1:]
    west, east = ver[:, :-1], ver[:, 1:]
    return ((n * n_c + west) * n_c + s) * n_c + east


def _conditions(cells: np.ndarray, quads: np.ndarray, rng: np.random.Generator) -> list:
    """Tile and color conditions that the given full tiling satisfies."""
    h, w = cells.shape
    flat = cells.ravel()
    a, b = rng.choice(h * w, 2, replace=False)
    same = np.flatnonzero(flat == flat[a])
    same = same[same != a]
    diff = np.flatnonzero(flat != flat[a])

    def pos(p):
        return int(p // w) + 1, int(p % w) + 1

    def color(p, side):
        return int(quads[flat[p], "nwse".index(side)])

    i, j = pos(a)
    k = int(flat[a])
    p_eq = next(p for p in range(h * w) if p != a and color(p, "s") == color(a, "n"))
    p_ne = next(p for p in range(h * w) if color(p, "w") != color(a, "e"))
    other = (color(b, "e") + 1) % (int(quads.max()) + 1)
    conds = [wt.ForceTile(i, j, k), wt.ForbidTile(i, j, (k + 1) % len(quads)),
             wt.ForceEdgeColor(*pos(b), "n", color(b, "n")),
             wt.ForbidEdgeColor(*pos(b), "e", other),
             wt.EqualEdgeColors(i, j, "n", *pos(p_eq), "s"),
             wt.DifferentEdgeColors(i, j, "e", *pos(p_ne), "w"),
             wt.DifferentTile(i, j, *pos(diff[0]))]
    if len(same):
        conds.append(wt.SameTile(i, j, *pos(same[0])))
    return conds


def _ilp_op(label: str, spec: ilp.ModelSpec, cells: np.ndarray,
            expect_feasible: bool, expect_objective: float | None) -> Op:
    tiling = wt.Tiling(cells)

    def run():
        t0 = time.perf_counter()
        model = ilp.build_model(spec)
        text = ilp.emit_lp(model)
        t1 = time.perf_counter()
        parsed = ilp.parse_lp(text)
        t2 = time.perf_counter()
        evaluation = ilp.evaluate_assignment(parsed, tiling)
        t3 = time.perf_counter()
        return ((model, parsed, text, evaluation),
                {"emit": t1 - t0, "parse": t2 - t1, "evaluate": t3 - t2})

    def check(out):
        model, parsed, text, evaluation = out
        return checks.check_ilp(model, parsed, text, ilp.emit_lp(parsed), evaluation,
                                expect_feasible, expect_objective)
    return Op("ilp", label, run, check)


def ilp_ops(size_name: str, rng: np.random.Generator) -> list[Op]:
    n = 20 if size_name == "full" else 8
    am = wt.builtin_set("ammann16")
    aq = checks.quads_of(am)
    c2 = wt.complete_stochastic_set(2)
    periodic = complete_tiling(2, n, n, rng, periodic=True)
    ext_spec = ilp.ModelSpec(c2, n, n, "decision",
                             (wt.PeriodicFixed(),) + tuple(_conditions(periodic, checks.quads_of(c2), rng)))
    ops = [_ilp_op(f"ilp complete2 {n}x{n} decision+extensions", ext_spec, periodic, True, None)]
    partial = greedy_partial(aq, n, n, rng)
    ops.append(_ilp_op(f"ilp ammann16 {n}x{n} max_cover", ilp.ModelSpec(am, n, n, "max_cover"),
                       partial, True, float((partial != checks.VOID).sum())))
    if size_name != "full":
        return ops
    noise = rng.integers(0, len(am), (n, n))
    rect = top_row(aq, n, n, rng)
    full4 = complete_tiling(4, n, n, rng)
    full2 = complete_tiling(2, n, n, rng)
    ops += [
        _ilp_op(f"ilp ammann16 {n}x{n} decision", ilp.ModelSpec(am, n, n, "decision"),
                noise, checks.mismatches(aq, noise) == 0, None),
        _ilp_op(f"ilp ammann16 {n}x{n} max_rect", ilp.ModelSpec(am, n, n, "max_rect"),
                rect, True, float(n)),
        _ilp_op(f"ilp ammann16 {n}x{n} max_csp", ilp.ModelSpec(am, n, n, "max_csp"),
                noise, True, float(checks.matched_edges(aq, noise))),
        _ilp_op(f"ilp complete4 {n}x{n} max_cover",
                ilp.ModelSpec(wt.complete_stochastic_set(4), n, n, "max_cover"),
                full4, True, float(n * n)),
        _ilp_op(f"ilp complete2 {n}x{n} max_csp", ilp.ModelSpec(c2, n, n, "max_csp"),
                full2, True, float(2 * n * n - 2 * n)),
    ]
    return ops


# -- plans --------------------------------------------------------------------

def _interleave(focus: list[Op], probes: list[Op]) -> list[Op]:
    """Both lists in order, each spread evenly over the round."""
    keyed = [((i + 0.5) / len(focus), 0, i) for i in range(len(focus))]
    keyed += [((j + 0.5) / len(probes), 1, j) for j in range(len(probes))]
    return [(focus, probes)[which][i] for _, which, i in sorted(keyed)]


def build(workload: str, seed: int) -> Plan:
    """Every input of one workload, made from the seed.  This is the timed
    set-up.  ``workload="probe"`` gives the probe size of every family."""
    focus = FOCUS.get(workload, {})
    size = {fam: focus.get(fam, "probe") for fam in FAMILIES}
    rng = np.random.default_rng(seed)
    cover, groups = cover_ops(size["cover"], seed)
    made = {"cover": cover}
    for fam, make in (("decide", decide_ops), ("torus", torus_ops), ("pack", pack_ops),
                      ("oracle", oracle_ops), ("ilp", ilp_ops)):
        made[fam] = make(size[fam], rng)
    focused = [op for fam in FAMILIES if fam in focus for op in made[fam]]
    probes = [op for fam in FAMILIES if fam not in focus for op in made[fam]] * PROBE_REPEATS
    return Plan(_interleave(focused, probes) if focused else probes, groups)
