"""Each checker accepts a correct output and rejects a corrupted one.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import wangtiler as wt
import wangtiler.ilp as ilp

import checks
import spans
import workloads

AMMANN = wt.builtin_set("ammann16")
AQ = checks.quads_of(AMMANN)
FINITE1 = wt.builtin_set("finite1")
FQ = checks.quads_of(FINITE1)


def flip(cells: np.ndarray, quads: np.ndarray, i: int = 1, j: int = 1) -> np.ndarray:
    """Replace one placed tile by a tile whose west color differs, so the
    edge to its west neighbor no longer matches."""
    cells = np.array(cells)
    west = quads[cells[i, j - 1], 3]
    cells[i, j] = next(k for k in range(len(quads)) if quads[k, 1] != west)
    return cells


def with_cells(result, cells):
    return dataclasses.replace(result, witness=wt.Tiling(cells))


# -- cover ----------------------------------------------------------------------

def test_cover_check_accepts_a_run_and_rejects_corruptions():
    run = wt.alg4_improve(AMMANN, 12, 12, "half", 3)
    assert checks.check_cover(AQ, run, 12, 12, complete=False) is None
    cells = np.array(run.tiling.cells)
    i, j = map(int, np.argwhere((cells[:, 1:] != -1) & (cells[:, :-1] != -1))[0])
    flipped = dataclasses.replace(run, tiling=wt.Tiling(flip(cells, AQ, i, j + 1)))
    assert "mismatched" in checks.check_cover(AQ, flipped, 12, 12, complete=False)
    wrong_count = dataclasses.replace(run, placed=run.placed + 1)
    assert "placed says" in checks.check_cover(AQ, wrong_count, 12, 12, complete=False)
    sparse = dataclasses.replace(run, tiling=wt.Tiling(np.full((12, 12), -1)), placed=0)
    assert "bound" in checks.check_cover(AQ, sparse, 12, 12, complete=False)


def test_cover_check_wants_complete_sets_full():
    c2 = wt.complete_stochastic_set(2)
    run = wt.alg4_improve(c2, 6, 6, "simple", 0)
    q = checks.quads_of(c2)
    assert checks.check_cover(q, run, 6, 6, complete=True) is None
    cells = np.array(run.tiling.cells)
    cells[2, 2] = -1
    holed = dataclasses.replace(run, tiling=wt.Tiling(cells), placed=35)
    assert "complete set" in checks.check_cover(q, holed, 6, 6, complete=True)


def test_paper_band_rejects_an_average_outside_five_percent():
    check = workloads._paper_band("finite1", ["a", "b"])
    assert check({"a": 360, "b": 362}) is None
    assert "outside" in check({"a": 300, "b": 310})


# -- decision -------------------------------------------------------------------

def test_decision_check_accepts_valid_and_infeasible_answers():
    res = wt.solve_decision(AMMANN, 5, 5)
    allowed = np.ones((5, 5, len(AQ)), dtype=bool)
    assert checks.check_decision(AQ, res, 5, 5, allowed) is None
    inf = wt.solve_decision(FINITE1, 8, 5)
    assert inf.status == wt.INFEASIBLE
    assert checks.check_decision(FQ, inf, 8, 5, np.ones((8, 5, len(FQ)), dtype=bool)) is None


def test_decision_check_rejects_a_flipped_witness_and_a_broken_condition():
    res = wt.solve_decision(AMMANN, 5, 5)
    allowed = np.ones((5, 5, len(AQ)), dtype=bool)
    flipped = with_cells(res, flip(res.witness.cells, AQ))
    assert "mismatched" in checks.check_decision(AQ, flipped, 5, 5, allowed)
    allowed[0, 0, res.witness.cells[0, 0]] = False
    assert "condition" in checks.check_decision(AQ, res, 5, 5, allowed)


def test_decision_check_rejects_an_infeasible_answer_that_highs_can_tile():
    fake = wt.SolveResult(wt.INFEASIBLE)
    allowed = np.ones((5, 5, len(AQ)), dtype=bool)
    assert "HiGHS tiles" in checks.check_decision(AQ, fake, 5, 5, allowed)


def test_relabeled_conditions_match_the_mask():
    rng = np.random.default_rng(7)
    rl = workloads._Relabeled(AMMANN, rng)
    allowed, bcs = workloads._allowed(rl, 8, 11, [("force", 1, 1, 0), ("forbidcol", 8, 3, "e", 2)])
    res = wt.solve_decision(rl.ts, 8, 11, bcs)
    assert res.status == wt.VALID
    assert checks.check_decision(rl.quads, res, 8, 11, allowed) is None
    assert res.witness.cells[0, 0] == rl.new_id[0]


# -- torus, packing, oracle ------------------------------------------------------

@pytest.mark.parametrize("n_c,h,w", [(2, 1, 1), (2, 2, 3), (3, 1, 2)])
def test_transfer_matrix_count_matches_the_closed_form(n_c, h, w):
    q = checks.quads_of(wt.complete_stochastic_set(n_c))
    assert checks.torus_count(q, h, w) == n_c ** (2 * h * w)


def test_torus_check_rejects_a_wrong_count_and_a_flipped_witness():
    c2 = wt.complete_stochastic_set(2)
    q = checks.quads_of(c2)
    count, witnesses = wt.count_torus(c2, 2, 3)
    assert checks.check_torus_count(q, (count, witnesses), 2, 3, 2 ** 12) is None
    assert "count" in checks.check_torus_count(q, (count - 1, witnesses), 2, 3, 2 ** 12)
    cells = np.array(witnesses[0].cells)
    cells[0, 0] ^= 1  # another east color: the wrap-around or inner edge breaks
    broken = [wt.Tiling(cells)] + list(witnesses[1:])
    assert "witness" in checks.check_torus_count(q, (count, broken), 2, 3, 2 ** 12)


def test_smallest_torus_check_rejects_a_wrong_count():
    corners = workloads._corner_ammann()
    q = checks.quads_of(corners)
    res = wt.smallest_torus(corners, 6)
    ref = checks.smallest_torus_reference(q, 6)
    assert checks.check_smallest_torus(q, res, ref) is None
    wrong = dataclasses.replace(res, dim_counts=((res.dims, res.count + 1),), count=res.count + 1)
    assert "dim_counts" in checks.check_smallest_torus(q, wrong, ref)


def test_pack_check_rejects_a_reused_tile_and_a_broken_wrap():
    c2 = wt.complete_stochastic_set(2)
    q = checks.quads_of(c2)
    res = wt.pack_tiles(c2, 4, 4, periodic=True, most_constrained=True)
    assert checks.check_pack(q, res, 4, 4, periodic=True) is None
    cells = np.array(res.witness.cells)
    cells[0, 0] = cells[0, 1]
    assert checks.check_pack(q, with_cells(res, cells), 4, 4, periodic=True) is not None
    swapped = np.array(res.witness.cells)[:, [1, 0, 2, 3]]
    assert checks.check_pack(q, with_cells(res, swapped), 4, 4, periodic=True) is not None


def test_oracle_check_rejects_a_wrong_count():
    best, witness = wt.max_cover_oracle(FINITE1, 4, 4)
    optimum = checks.highs_max_cover(FQ, 4, 4)
    assert best == optimum == 16
    assert checks.check_oracle(FQ, (best, witness), 4, 4, optimum) is None
    assert "witness places" in checks.check_oracle(FQ, (best - 1, witness), 4, 4, optimum)
    cells = np.array(witness.cells)
    cells[0, 0] = -1
    assert "HiGHS optimum" in checks.check_oracle(FQ, (best - 1, wt.Tiling(cells)), 4, 4, optimum)


# -- ILP ------------------------------------------------------------------------

def test_ilp_check_rejects_an_unstable_emit_and_a_wrong_objective():
    rng = np.random.default_rng(0)
    cells = workloads.greedy_partial(AQ, 6, 6, rng)
    op = workloads._ilp_op("t", ilp.ModelSpec(AMMANN, 6, 6, "max_cover"), cells,
                           True, float((cells != -1).sum()))
    out, phases = op.run()
    assert set(phases) == {"emit", "parse", "evaluate"}
    assert op.check(out) is None
    model, parsed, text, ev = out
    assert "byte-stable" in checks.check_ilp(model, parsed, text, text + " ", ev, True, None)
    assert "objective" in checks.check_ilp(model, parsed, text, text, ev, True, ev.objective + 1)
    short = dataclasses.replace(parsed, constraints=parsed.constraints[1:])
    assert "size" in checks.check_ilp(model, short, text, text, ev, True, None)


def test_known_tilings_are_what_the_ilp_checks_assume():
    rng = np.random.default_rng(3)
    q2 = checks.quads_of(wt.complete_stochastic_set(2))
    full = workloads.complete_tiling(2, 6, 7, rng, periodic=True)
    assert checks.tiling_problem(q2, full, (6, 7), full=True, torus=True) is None
    assert checks.matched_edges(q2, full) == 2 * 6 * 7 - 6 - 7
    row = workloads.top_row(AQ, 5, 9, rng)
    assert checks.tiling_problem(AQ, row, (5, 9)) is None and (row[0] != -1).all()
    spec = ilp.ModelSpec(wt.complete_stochastic_set(2), 6, 7, "decision",
                         (wt.PeriodicFixed(),) + tuple(workloads._conditions(full, q2, rng)))
    assert ilp.evaluate_assignment(ilp.build_model(spec), wt.Tiling(full)).feasible


# -- tracing --------------------------------------------------------------------

def test_tracer_records_nested_spans_and_restores_the_api():
    original = wt.solve_decision
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        root = tracer.open("op.decide")
        wt.solve_decision(FINITE1, 4, 6)  # wider than tall: recurses once
        tracer.close(root)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert wt.solve_decision is original
    metrics, absent = tracer.metrics(1, 0.0)
    assert metrics["exact.solve_decision.s"]["value"] > 0
    assert metrics["tileset.reflected.calls"]["value"] == 1
    assert metrics["exact.solve_decision.states"]["value"] > 0
    assert absent == []
    assert metrics["ilp.parse_lp.s"]["value"] == 0


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    monkeypatch.delattr(wt.heuristics, "shortest_row")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    _, absent = tracer.metrics(1, 0.0)
    assert absent == ["heuristics.shortest_row.s"]
