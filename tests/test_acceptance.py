"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here and nowhere else.

The complete(4) 16x16 packing attempt honors a 5-minute deadline by default;
set WANGTILER_ACCEPT_PACK4 (seconds) to shorten it during development runs.
"""

import math
import os
import random
import time

import pytest

import wangtiler as wt
from wangtiler import (INFEASIBLE, VALID, builtin_set,
                       complete_stochastic_set, cover, max_cover_oracle,
                       max_row_cover, pack_tiles, smallest_torus,
                       solve_decision, validate_tiling)
from wangtiler.heuristics import build_layered_dag
from wangtiler.ilp import ModelSpec, build_model, evaluate_assignment
from wangtiler.transducer import (DUAL, HORIZONTAL, all_states_on_cycles,
                                  build_transducer, longest_path_at_least,
                                  parallel_arcs)

from helpers import random_tileset

INITS = ("simple", "half", "twothirds")


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_stochastic_full_coverage():
    cases = [(complete_stochastic_set(2), [(20, 20), (25, 25), (30, 30)]),
             (complete_stochastic_set(4), [(10, 10)])]
    assert len(cases[0][0]) == 16  # the complete 2-color set has 16 tiles
    failures = 0
    slowest = 0.0
    runs = 0
    for ts, sizes in cases:
        for (h, w) in sizes:
            for init in INITS:
                for seed in range(100):
                    t0 = time.perf_counter()
                    run = cover(ts, h, w, init, seed)
                    dt = time.perf_counter() - t0
                    slowest = max(slowest, dt)
                    runs += 1
                    if run.placed != h * w or dt >= 1.0:
                        failures += 1
    report(1, failures == 0 and slowest < 1.0,
           f"complete sets fully covered in {runs} runs, "
           f"slowest {slowest * 1000:.0f} ms")


def test_criterion_02_approximation_guarantees():
    sets = [builtin_set(n) for n in ("fig3", "finite1", "finite2", "ammann16")]
    sets += [complete_stochastic_set(2), complete_stochastic_set(3)]
    violations = 0
    checked = 0
    for ts in sets:
        half_applies = longest_path_at_least(
            build_transducer(ts, HORIZONTAL), 2)
        thirds_applies = (all_states_on_cycles(build_transducer(ts, HORIZONTAL))
                          and all_states_on_cycles(build_transducer(ts, DUAL)))
        for (h, w) in ((9, 9), (15, 15)):
            for seed in range(100):
                if half_applies:
                    r = cover(ts, h, w, "half", seed, improve=False)
                    assert r.bound == "1/2"
                    checked += 1
                    if r.placed < math.ceil(h * w / 2):
                        violations += 1
                if thirds_applies:
                    r = cover(ts, h, w, "twothirds", seed, improve=False)
                    assert r.bound == "2/3"
                    checked += 1
                    if r.placed < math.ceil(2 * h * w / 3):
                        violations += 1
    report(2, violations == 0,
           f"{checked} guaranteed runs, {violations} bound violations")


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    grids = [(h, w) for h in range(1, 10) for w in range(1, 10) if h * w <= 9]
    rng = random.Random(42)
    violations = 0
    for i in range(300):
        ts = random_tileset(rng, max_colors=3, max_tiles=6)
        for (h, w) in grids:
            best, witness = max_cover_oracle(ts, h, w)
            assert validate_tiling(ts, witness).is_valid
            for init in INITS:
                if cover(ts, h, w, init, seed=i, improve=False).placed > best:
                    violations += 1
            if cover(ts, h, w, "simple", seed=i).placed > best:
                violations += 1
            if h == 1:
                free = [(0,) * ts.num_colors] * w
                row, _ = max_row_cover(ts, w, free, free)
                if row.count(wt.VOID) != w - best:
                    violations += 1
    elapsed = time.perf_counter() - t0
    report(3, violations == 0 and elapsed < 60.0,
           f"300 random sets x {len(grids)} grids, {violations} violations, "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_04_ammann_periodicity_discovery():
    t0 = time.perf_counter()
    translation = wt.translate_horizontal(builtin_set("ammann16"))
    ts = wt.corner_to_wang(translation.corners, translation.n_vc)
    res = smallest_torus(ts, max_area=6)
    elapsed = time.perf_counter() - t0
    ok = (res is not None and res.min_area == 6 and res.count == 12
          and sorted(res.dims) == [2, 3] and elapsed < 10.0)
    for witness in res.witnesses:
        assert validate_tiling(ts, witness).is_valid
    report(4, ok,
           f"min area {res.min_area}, {res.count} labeled tilings on the "
           f"{res.dims[0]}x{res.dims[1]} rectangle, {elapsed:.2f}s")


def test_criterion_05_parallel_arc_witness():
    g = build_transducer(builtin_set("ammann16"), HORIZONTAL)
    pairs = parallel_arcs(g)
    ok = len(pairs) == 1 and pairs[0][:2] == (1, 0) and len(pairs[0][2]) == 2
    labels = {g.arcs[k].label() for k in pairs[0][2]}
    ok = ok and labels == {"2|4", "5|3"}
    report(5, ok, f"parallel pair {pairs[0][:2]} with labels {sorted(labels)}")


def test_criterion_06_tile_packing():
    budgets = []
    for n, (h, w) in ((2, (4, 4)), (3, (9, 9))):
        ts = complete_stochastic_set(n)
        t0 = time.perf_counter()
        res = pack_tiles(ts, h, w, periodic=True, deadline=60)
        dt = time.perf_counter() - t0
        assert res.status == VALID
        assert sorted(res.witness.cells.flatten().tolist()) == list(range(h * w))
        assert validate_tiling(ts, res.witness).is_valid
        budgets.append(dt)
    ok = all(dt < 10.0 for dt in budgets)
    # The complete 4-color set on 16x16 is attempted and reported, not gated:
    # backtracking is not expected to reach it (the published baseline needed
    # a commercial MILP solver to finish in seconds).
    deadline = float(os.environ.get("WANGTILER_ACCEPT_PACK4", "300"))
    res4 = pack_tiles(complete_stochastic_set(4), 16, 16, periodic=True,
                      deadline=deadline)
    report(6, ok,
           f"complete(2) {budgets[0]:.2f}s, complete(3) {budgets[1]:.2f}s "
           f"(< 10s each); complete(4) 16x16 attempt: {res4.status} "
           f"after {res4.stats['seconds']:.0f}s "
           f"({res4.stats['nodes']} nodes, not gated)")


def test_criterion_07_dag_size_formulas():
    rng = random.Random(1)
    checked = 0
    for width in range(1, 11):
        for n_colors in range(1, 7):
            for n_tiles in range(1, min(20, n_colors ** 4) + 1):
                quads = set()
                while len(quads) < n_tiles:
                    quads.add(tuple(rng.randrange(n_colors) for _ in range(4)))
                ts = wt.TileSet([wt.Tile(*q) for q in sorted(quads)],
                                num_colors=n_colors)
                free = [(0,) * n_colors] * width
                dag = build_layered_dag(ts, width, free, free)
                assert dag.vertex_count == 2 + (width + 1) * n_colors + width
                assert dag.edge_count == (2 * n_colors
                                          + 2 * width * n_colors
                                          + width * n_tiles)
                checked += 1
    report(7, True, f"vertex/edge closed forms exact on {checked} graphs")


def test_criterion_08_max_csp_identity():
    ts = complete_stochastic_set(2)
    run = cover(ts, 20, 20, "simple", seed=0, improve=False)
    assert run.placed == 400
    model = build_model(ModelSpec(ts, 20, 20, "max_csp"))
    ev = evaluate_assignment(model, run.tiling)
    ok = ev.feasible and ev.objective == 2 * 20 * 20 - 40
    report(8, ok, f"valid full 20x20 tiling scores {ev.objective} (= 760)")


def test_criterion_09_infeasibility_regression():
    ts = builtin_set("finite1")
    smallest = None
    area = 1
    while smallest is None and area <= 60:
        for h in range(1, area + 1):
            if area % h:
                continue
            res = solve_decision(ts, h, area // h)
            assert res.status in (VALID, INFEASIBLE)
            if res.status == INFEASIBLE:
                smallest = (h, area // h)
                break
        area += 1
    ok = smallest == (8, 5)
    for (h, w) in ((10, 6), (15, 12)):
        ok = ok and solve_decision(ts, h, w).status == INFEASIBLE
    # consistent with the published 20x20 infeasibility: 20 >= 8 and 20 >= 5
    ok = ok and 20 >= smallest[0] and 20 >= smallest[1]
    report(9, ok, f"smallest infeasible rectangle {smallest}; "
                  f"monotone at 10x6 and 15x12; consistent with 20x20")


def test_criterion_10_quality_bands():
    results = []
    ok = True
    for name, published_avg in (("finite1", 360.71), ("ammann16", 366.09)):
        ts = builtin_set(name)
        placed = [cover(ts, 20, 20, "simple", seed).placed
                  for seed in range(100)]
        avg = sum(placed) / len(placed)
        lo, hi = 0.95 * published_avg, 1.05 * published_avg
        ok = ok and lo <= avg <= hi
        results.append(f"{name} avg {avg:.2f} in [{lo:.2f}, {hi:.2f}]")
    report(10, ok, "; ".join(results))
