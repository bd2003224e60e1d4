import itertools
import random

import numpy as np
import pytest

import wangtiler as wt
from wangtiler import (ConfigurationError, DifferentEdgeColors, DifferentTile,
                       EqualEdgeColors, ForbidEdgeColor, ForbidTile,
                       ForceEdgeColor, ForceTile, Packing, PeriodicFixed,
                       PeriodicVariable, SameTile, SmallestObjective,
                       StructuralError, Tile, TileSet, Tiling, VOID,
                       builtin_set, complete_stochastic_set, solve_decision,
                       validate_tiling)
from wangtiler.ilp import (ModelSpec, build_model, emit_lp, evaluate_assignment,
                           parse_lp, x_name)

from helpers import random_tileset


def spec(ts, h, w, formulation, *exts):
    return ModelSpec(ts, h, w, formulation, tuple(exts))


def names(m, prefix):
    return [c for c in m.constraints if c.name.startswith(prefix)]


def signature(m):
    return sorted(
        (c.name, c.sense, c.rhs,
         tuple(sorted((m.variables[vi].name, coef) for coef, vi in c.terms)))
        for c in m.constraints)


# -- builder -------------------------------------------------------------------

def test_decision_fig3_2x2_counts():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "decision"))
    assert len(m.variables) == 12
    assert all(v.kind == "binary" for v in m.variables)
    assert len(names(m, "v_")) == 1 * 2 * 2
    assert len(names(m, "h_")) == 2 * 1 * 2
    assert len(names(m, "occ_")) == 4
    assert len(m.constraints) == 12
    assert m.objective.sense == "none"


def test_decision_boundary_union_no_duplicates():
    m = build_model(spec(builtin_set("fig3"), 1, 3, "decision"))
    occ = names(m, "occ_")
    assert [c.name for c in occ] == ["occ_1_1", "occ_1_2", "occ_1_3"]
    m = build_model(spec(builtin_set("fig3"), 1, 1, "decision"))
    assert [c.name for c in names(m, "occ_")] == ["occ_1_1"]


def test_variable_naming_scheme():
    m = build_model(spec(builtin_set("fig3"), 2, 3, "decision"))
    assert m.variables[0].name == "x_1_1_0"
    assert x_name(2, 3, 1) == "x_2_3_1"
    assert m.variables[-1].name == "x_2_3_2"


def test_max_rect_structure():
    m = build_model(spec(builtin_set("fig3"), 3, 3, "max_rect"))
    assert all(c.sense == ">=" for c in names(m, "v_") + names(m, "h_"))
    assert len(names(m, "rect_")) == 4
    anchor = next(c for c in m.constraints if c.name == "occ_1_1")
    assert anchor.sense == "=" and anchor.rhs == 1
    others = [c for c in names(m, "occ_") if c.name != "occ_1_1"]
    assert all(c.sense == "<=" for c in others)
    assert m.objective.sense == "max" and len(m.objective.terms) == 27


def test_max_cover_structure():
    ts = builtin_set("fig3")
    m = build_model(spec(ts, 2, 2, "max_cover"))
    assert all(c.sense == "<=" for c in m.constraints)
    # paired indicator families: e=l on the left cell, w!=l on the right
    c = next(c for c in m.constraints if c.name == "h_1_1_0")
    terms = {m.variables[vi].name: coef for coef, vi in c.terms}
    assert terms == {"x_1_1_0": 1.0, "x_1_2_0": 1.0, "x_1_2_1": 1.0}


def test_max_csp_structure():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "max_csp"))
    slack_names = [v.name for v in m.variables if v.kind == "continuous"]
    assert slack_names == ["hv_1_1", "hv_2_1", "hh_1_1", "hh_1_2"]
    assert all(v.lower == 0.0 and v.upper == 1.0
               for v in m.variables if v.kind == "continuous")
    assert len(names(m, "v_")) == 2 * 2 * 2  # _p and _m per (i,j,l)
    assert len(names(m, "h_")) == 2 * 2 * 2
    assert m.objective.sense == "max"
    assert m.objective.constant == 4.0


def test_extension_compatibility_matrix():
    ts = builtin_set("fig3")
    build_model(spec(ts, 2, 2, "decision", PeriodicFixed()))
    build_model(spec(ts, 2, 2, "max_csp", PeriodicFixed()))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "max_rect", PeriodicFixed()))
    build_model(spec(ts, 2, 2, "max_rect", PeriodicVariable()))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "max_cover", PeriodicVariable()))
    build_model(spec(ts, 2, 2, "max_rect", SmallestObjective()))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "decision", SmallestObjective()))


def test_packing_requires_matching_cardinality():
    ts = complete_stochastic_set(2)
    m = build_model(spec(ts, 4, 4, "decision", Packing()))
    assert len(names(m, "pack_")) == 16
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 3, 4, "decision", Packing()))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 4, 4, "max_cover", Packing()))


def test_tile_and_color_extensions_build_everywhere():
    ts = builtin_set("fig3")
    exts = [ForceTile(1, 1, 0), ForbidTile(2, 2, 1), SameTile(1, 1, 2, 2),
            DifferentTile(1, 2, 2, 1), ForceEdgeColor(1, 1, "n", 0),
            ForbidEdgeColor(2, 2, "e", 1), EqualEdgeColors(1, 1, "n", 2, 2, "w"),
            DifferentEdgeColors(1, 1, "s", 2, 2, "e")]
    for formulation in ("decision", "max_rect", "max_cover", "max_csp"):
        m = build_model(spec(ts, 2, 2, formulation, *exts))
        assert names(m, "force_1_1_0") and names(m, "eqcol_")


def test_extension_coordinate_validation():
    ts = builtin_set("fig3")
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "decision", ForceTile(3, 1, 0)))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "decision", ForceTile(1, 1, 9)))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "decision", ForceEdgeColor(1, 1, "x", 0)))
    with pytest.raises(ConfigurationError):
        build_model(spec(ts, 2, 2, "decision", ForceEdgeColor(1, 1, "n", 5)))


def test_smallest_objective_flips_sense():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "max_rect",
                         PeriodicVariable(), SmallestObjective()))
    assert m.objective.sense == "min"
    assert names(m, "pvh_") and names(m, "pvv_")


# -- emission and parsing ---------------------------------------------------------

def test_emit_decision_header():
    m = build_model(spec(builtin_set("fig3"), 1, 1, "decision"))
    text = emit_lp(m)
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    assert lines[1] == " obj: 0"
    assert "Binaries" in lines
    assert lines[-1] == "End"


def test_emit_deterministic():
    s = spec(builtin_set("finite1"), 3, 4, "max_csp", ForceTile(1, 1, 2))
    assert emit_lp(build_model(s)) == emit_lp(build_model(s))


def test_emit_parse_round_trip_decision():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "decision"))
    m2 = parse_lp(emit_lp(m))
    assert signature(m) == signature(m2)
    assert emit_lp(m2) == emit_lp(m)


@pytest.mark.parametrize("formulation", ["decision", "max_rect", "max_cover",
                                         "max_csp"])
def test_emit_parse_round_trip_all_formulations(formulation):
    m = build_model(spec(builtin_set("finite1"), 2, 3, formulation))
    m2 = parse_lp(emit_lp(m))
    assert signature(m) == signature(m2)
    assert [v.name for v in m.variables] == [v.name for v in m2.variables]
    assert emit_lp(m2) == emit_lp(m)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_lp("Minimize\n obj: 0\nSubject To\n c1: x_1_1_0 = 1\nEnd\n")


# -- evaluation ---------------------------------------------------------------------

def test_evaluate_decision_valid_and_invalid():
    ts = builtin_set("fig3")
    m = build_model(spec(ts, 2, 2, "decision"))
    res = solve_decision(ts, 2, 2)
    ev = evaluate_assignment(m, res.witness)
    assert ev.feasible and ev.objective == 0.0
    bad = Tiling([[0, 0], [0, 0]])
    assert not validate_tiling(ts, bad).is_valid
    ev = evaluate_assignment(m, bad)
    assert not ev.feasible and ev.violated


def test_evaluate_all_void_max_cover():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "max_cover"))
    ev = evaluate_assignment(m, Tiling.filled(2, 2))
    assert ev.feasible and ev.objective == 0.0


def test_evaluate_max_cover_objective_counts_tiles():
    ts = builtin_set("fig3")
    m = build_model(spec(ts, 3, 3, "max_cover"))
    run = wt.cover(ts, 3, 3, "simple", seed=0)
    ev = evaluate_assignment(m, run.tiling)
    assert ev.feasible
    assert ev.objective == run.placed


def test_evaluate_max_csp_mismatch_drops_objective():
    ts = TileSet([Tile(0, 0, 0, 0), Tile(1, 1, 1, 1)], num_colors=2)
    m = build_model(spec(ts, 1, 2, "max_csp"))
    good = evaluate_assignment(m, Tiling([[0, 0]]))
    bad = evaluate_assignment(m, Tiling([[0, 1]]))
    assert good.feasible and bad.feasible
    assert good.objective == 1.0
    assert bad.objective == 0.0


def test_evaluate_max_csp_full_valid_identity():
    ts = complete_stochastic_set(2)
    for (h, w) in [(3, 3), (4, 5)]:
        run = wt.cover(ts, h, w, "simple", seed=1, improve=False)
        assert run.placed == h * w
        m = build_model(spec(ts, h, w, "max_csp"))
        ev = evaluate_assignment(m, run.tiling)
        assert ev.feasible
        assert ev.objective == 2 * h * w - h - w


def test_evaluate_dimension_mismatch():
    m = build_model(spec(builtin_set("fig3"), 2, 2, "decision"))
    with pytest.raises(StructuralError):
        evaluate_assignment(m, Tiling.filled(2, 3))


def test_evaluate_periodic_fixed():
    ts = complete_stochastic_set(2)
    m = build_model(spec(ts, 2, 2, "decision", PeriodicFixed()))
    torus = wt.count_torus(ts, 2, 2)[1][0]
    assert evaluate_assignment(m, torus).feasible
    res = solve_decision(ts, 2, 2)
    ev = evaluate_assignment(m, res.witness)
    # a generic witness need not wrap; the validator just has to notice
    wraps = all(ts.easts[res.witness.get(i, 2)] == ts.wests[res.witness.get(i, 1)]
                for i in (1, 2)) and \
            all(ts.souths[res.witness.get(2, j)] == ts.norths[res.witness.get(1, j)]
                for j in (1, 2))
    assert ev.feasible == wraps


def test_decision_model_agrees_with_exact_solver():
    rng = random.Random(12)
    for _ in range(30):
        ts = random_tileset(rng, max_colors=3, max_tiles=6)
        h, w = rng.randint(1, 4), rng.randint(1, 4)
        m = build_model(spec(ts, h, w, "decision"))
        res = solve_decision(ts, h, w)
        if res.status == wt.VALID:
            assert evaluate_assignment(m, res.witness).feasible


def test_max_rect_full_assignments_match_decision():
    rng = random.Random(13)
    for _ in range(20):
        ts = random_tileset(rng, max_colors=2, max_tiles=5)
        h, w = 2, 2
        md = build_model(spec(ts, h, w, "decision"))
        mr = build_model(spec(ts, h, w, "max_rect"))
        for assign in itertools.product(range(len(ts)), repeat=h * w):
            t = Tiling(np.array(assign, dtype=np.int32).reshape(h, w))
            assert (evaluate_assignment(md, t).feasible
                    == evaluate_assignment(mr, t).feasible)


def test_max_rect_partial_rectangle_feasible():
    ts = builtin_set("fig3")
    m = build_model(spec(ts, 2, 2, "max_rect"))
    ev = evaluate_assignment(m, Tiling([[1, 0], [VOID, VOID]]))
    assert ev.feasible and ev.objective == 2.0
    # detached tile without the anchor violates the dominance constraints
    ev = evaluate_assignment(m, Tiling([[VOID, VOID], [VOID, 1]]))
    assert not ev.feasible
