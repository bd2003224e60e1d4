"""The formulations checked by solving them: HiGHS, through
``scipy.optimize.milp``, on each model's CSR arrays against the exact
engines, over random sets of at most 3 colours and grids of at most 9
cells."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")

import wangtiler as wt  # noqa: E402
from wangtiler.ilp import ModelSpec, build_model  # noqa: E402

from helpers import naive_max_csp, rect_staircase  # noqa: E402


def highs(model) -> float | None:
    """The model's optimum found by HiGHS, None when it is infeasible."""
    var, con, obj = model.variables, model.constraints, model.objective
    a = sparse.csr_array((con.data, con.indices, con.indptr), shape=(len(con), len(var)))
    lo = np.where(con.senses == "<=", -np.inf, con.rhs)
    hi = np.where(con.senses == ">=", np.inf, con.rhs)
    cost = np.zeros(len(var))
    np.add.at(cost, obj.indices, obj.data)
    sign = -1.0 if obj.sense == "max" else 1.0
    res = optimize.milp(sign * cost, constraints=optimize.LinearConstraint(a, lo, hi),
                        integrality=var.binary.astype(int),
                        bounds=optimize.Bounds(var.lower, var.upper))
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return sign * res.fun + obj.constant


@st.composite
def small_sets(draw):
    nc = draw(st.integers(1, 3))
    quads = draw(st.lists(st.tuples(*[st.integers(0, nc - 1)] * 4),
                          min_size=1, max_size=6, unique=True))
    return wt.TileSet([wt.Tile(*q) for q in quads], num_colors=nc)


@st.composite
def instances(draw):
    """A set, a grid of at most 9 cells, and up to two per-cell conditions
    with or without PeriodicFixed."""
    ts = draw(small_sets())
    h = draw(st.integers(1, 3))
    w = draw(st.integers(1, 9 // h))
    exts = [wt.PeriodicFixed()] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from([wt.ForceTile, wt.ForbidTile,
                                     wt.ForceEdgeColor, wt.ForbidEdgeColor]))
        i, j = draw(st.integers(1, h)), draw(st.integers(1, w))
        if kind in (wt.ForceTile, wt.ForbidTile):
            exts.append(kind(i, j, draw(st.integers(0, len(ts) - 1))))
        else:
            exts.append(kind(i, j, draw(st.sampled_from("nswe")),
                             draw(st.integers(0, ts.num_colors - 1))))
    return ts, h, w, exts


@settings(max_examples=40, deadline=None)
@given(instances())
def test_decision_model_is_feasible_exactly_when_the_sweep_tiles(inst):
    ts, h, w, exts = inst
    model = build_model(ModelSpec(ts, h, w, "decision", tuple(exts)))
    res = wt.solve_decision(ts, h, w, bcs=exts)
    assert (highs(model) is not None) == (res.status == wt.VALID)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_max_cover_optimum_is_the_oracle(inst):
    ts, h, w, _ = inst
    optimum = highs(build_model(ModelSpec(ts, h, w, "max_cover")))
    best, _ = wt.max_cover_oracle(ts, h, w)
    assert optimum == pytest.approx(best, abs=1e-6)
    assert best >= wt.cover(ts, h, w, "simple", seed=0).placed


@st.composite
def grids(draw):
    """A set and a grid of at most 9 cells, as tall as 9 rows."""
    ts = draw(small_sets())
    h = draw(st.integers(1, 9))
    return ts, h, draw(st.integers(1, 9 // h))


@settings(max_examples=40, deadline=None)
@given(grids())
def test_max_rect_optimum_is_the_staircase_maximum(inst):
    # The anchored rectangles that have a tiling form a staircase, and its
    # largest step is the max_rect optimum.
    ts, h, w = inst
    best = max(a * b for a, b in enumerate(rect_staircase(ts, h, w), 1))
    assert highs(build_model(ModelSpec(ts, h, w, "max_rect"))) == pytest.approx(
        best, abs=1e-6)


@st.composite
def enumerable(draw):
    """A set and a grid with at most 4 096 full assignments."""
    ts = draw(small_sets())
    h = draw(st.integers(1, 3))
    w = draw(st.integers(1, max(c for c in range(1, 9 // h + 1)
                                if len(ts) ** (h * c) <= 4096)))
    return ts, h, w


@settings(max_examples=40, deadline=None)
@given(enumerable())
def test_max_csp_optimum_is_the_brute_force_one(inst):
    ts, h, w = inst
    assert highs(build_model(ModelSpec(ts, h, w, "max_csp"))) == pytest.approx(
        naive_max_csp(ts, h, w), abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_max_csp_matches_every_edge_exactly_when_a_full_tiling_exists(inst):
    ts, h, w, _ = inst
    optimum = highs(build_model(ModelSpec(ts, h, w, "max_csp")))
    full = wt.solve_decision(ts, h, w).status == wt.VALID
    assert (optimum == pytest.approx(2 * h * w - h - w, abs=1e-6)) == full


@pytest.mark.parametrize("name, h, w, dead, smaller", [
    ("finite2", 10, 10, (4, 10), (3, 10)),
    ("finite1", 15, 12, (7, 12), (6, 12)),
    ("finite1", 12, 15, (12, 5), (12, 4)),
])
def test_highs_confirms_the_infeasible_certificate(name, h, w, dead, smaller):
    # The row (or column) an INFEASIBLE sweep names is where no partial
    # tiling survives: the rectangle that ends there has no tiling, and the
    # one a row (or column) smaller has one.
    ts = wt.builtin_set(name)
    res = wt.solve_decision(ts, h, w)
    assert res.status == wt.INFEASIBLE
    assert (res.stats.get("row", h), res.stats.get("column", w)) == dead
    assert highs(build_model(ModelSpec(ts, *dead, "decision"))) is None
    assert highs(build_model(ModelSpec(ts, *smaller, "decision"))) == 0.0
