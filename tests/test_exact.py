import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wangtiler as wt
import wangtiler.exact as exact
from wangtiler import (CAPPED, INFEASIBLE, VALID, BudgetExceededError,
                       ConfigurationError, ForceTile, PeriodicFixed, Tile,
                       TileSet, Tiling, VOID, builtin_set,
                       complete_stochastic_set, count_torus, max_cover_oracle,
                       pack_tiles, smallest_torus, solve_decision,
                       validate_tiling)

from helpers import (PACK_SHAPES, naive_full_tiling_exists, naive_max_cover,
                     naive_packing_exists, naive_torus_tilings,
                     random_packing_set, random_tileset)


# -- decision ----------------------------------------------------------------

def test_decision_fig3_2x2_valid():
    ts = builtin_set("fig3")
    res = solve_decision(ts, 2, 2)
    assert res.status == VALID
    assert validate_tiling(ts, res.witness).is_valid
    assert naive_full_tiling_exists(ts, 2, 2)


def test_decision_force_tile_1x1():
    ts = builtin_set("fig3")
    res = solve_decision(ts, 1, 1, bcs=[ForceTile(1, 1, 2)])
    assert res.status == VALID and res.witness.get(1, 1) == 2


def test_decision_force_conflicting_tiles_infeasible():
    ts = builtin_set("fig3")
    # tiles 0 and 0 side by side: east 0 vs west 1 mismatch
    res = solve_decision(ts, 1, 2, bcs=[ForceTile(1, 1, 0), ForceTile(1, 2, 0)])
    assert res.status == INFEASIBLE


def test_decision_rejects_bad_config():
    ts = builtin_set("fig3")
    with pytest.raises(ConfigurationError):
        solve_decision(ts, 2, 2, cap=0)
    with pytest.raises(ConfigurationError):
        solve_decision(ts, 0, 2)
    for ext in (wt.SameTile(1, 1, 2, 2), wt.Packing()):
        with pytest.raises(ConfigurationError):
            solve_decision(ts, 2, 2, bcs=[ext])
    with pytest.raises(ConfigurationError):
        solve_decision(ts, 2, 2, bcs=[ForceTile(3, 1, 0)])


@pytest.mark.parametrize("h, w", [(2, 3), (3, 2)])
@pytest.mark.parametrize("bc, fragment", [
    (wt.ForceEdgeColor(1, 1, "q", 1), "side"),
    (wt.ForbidEdgeColor(1, 1, "x", 0), "side"),
    (wt.ForceTile(1, 1, 9), "tile id 9"),
    (wt.ForbidTile(1, 1, 9), "tile id 9"),
    (wt.ForceEdgeColor(1, 1, "n", 9), "color 9"),
    (wt.ForbidEdgeColor(1, 1, "e", -1), "color -1"),
    (wt.ForceTile(1, 5, 0), r"\(1, 5\)"),
    (wt.ForbidTile(4, 1, 0), r"\(4, 1\)"),
])
def test_decision_rejects_bad_cell_conditions(h, w, bc, fragment):
    # Checked before the wide grid is transposed, so the message names the
    # caller's own coordinates in either orientation.
    with pytest.raises(ConfigurationError, match=fragment):
        solve_decision(builtin_set("fig3"), h, w, bcs=[bc])


def test_decision_cap_returns_capped():
    # The stats give the states stored by the end of the cell whose layer
    # crossed the cap, and where that was; a grid wider than tall is swept
    # transposed, so there the cap is crossed in a column.
    res = solve_decision(builtin_set("finite1"), 6, 6, cap=10)
    assert res.status == CAPPED and res.stats == {"states": 18, "row": 1}
    res = solve_decision(builtin_set("ammann16"), 9, 9, cap=20_000)
    assert res.status == CAPPED and res.stats == {"states": 28_504, "row": 1}
    res = solve_decision(builtin_set("finite1"), 3, 9, cap=10)
    assert res.status == CAPPED and res.stats == {"states": 21, "column": 1}
    res = solve_decision(builtin_set("finite1"), 8, 5, cap=1988)
    assert res.status == INFEASIBLE and res.stats == {"states": 1988}
    res = solve_decision(builtin_set("finite1"), 8, 5, cap=1987)
    assert res.status == CAPPED and res.stats["row"] == 8
    # The torus sweep stops at the first state past the cap.
    c2 = complete_stochastic_set(2)
    res = solve_decision(c2, 2, 3, [PeriodicFixed()], cap=100)
    assert res.status == CAPPED and res.stats == {"states": 101, "column": 2}


def test_decision_finite1_regression():
    ts = builtin_set("finite1")
    assert solve_decision(ts, 8, 5).status == INFEASIBLE
    assert solve_decision(ts, 5, 8).status == VALID
    assert solve_decision(ts, 7, 7).status == INFEASIBLE
    assert solve_decision(ts, 6, 6).status == VALID


def test_decision_agrees_with_enumeration_small():
    rng = random.Random(21)
    for _ in range(60):
        ts = random_tileset(rng, max_colors=3, max_tiles=5)
        for (h, w) in [(1, 2), (2, 2), (2, 3), (3, 2)]:
            res = solve_decision(ts, h, w)
            exists = naive_full_tiling_exists(ts, h, w)
            assert (res.status == VALID) == exists
            if res.witness is not None:
                assert validate_tiling(ts, res.witness).is_valid
                assert res.witness.placed == h * w


def test_decision_infeasible_agrees_with_oracle():
    rng = random.Random(22)
    for _ in range(40):
        ts = random_tileset(rng)
        for (h, w) in [(2, 2), (3, 3), (2, 4)]:
            res = solve_decision(ts, h, w)
            best, _ = max_cover_oracle(ts, h, w)
            assert (res.status == INFEASIBLE) == (best < h * w)


def test_decision_monotonicity_spot():
    # A sub-rectangle of a valid tiling is valid, so infeasibility only grows.
    for name, base in [("finite1", (8, 5)), ("finite2", (4, 8))]:
        ts = builtin_set(name)
        assert solve_decision(ts, *base).status == INFEASIBLE
        for (h, w) in [(base[0] + 1, base[1]), (base[0] + 2, base[1] + 2)]:
            assert solve_decision(ts, h, w).status == INFEASIBLE


@pytest.mark.parametrize("name, h, w", [("fig3", 5, 7), ("finite1", 8, 5),
                                        ("finite1", 6, 6), ("ammann16", 6, 6)])
def test_object_keys_match_int64_keys(monkeypatch, name, h, w):
    # Keys of 62 bits or more run the rectangle sweep on Python ints; a key
    # limit of 0 sends every instance down that path.
    ts = builtin_set(name)
    conds = [wt.ForbidTile(2, 2, 0), wt.ForceEdgeColor(1, 1, "w", ts.wests[1])]

    def answers():
        runs = [solve_decision(ts, h, w), solve_decision(ts, h, w, conds)]
        best, witness = max_cover_oracle(ts, min(h, 4), min(w, 4))
        return ([(r.status, r.stats,
                  None if r.witness is None else r.witness.cells.tolist())
                 for r in runs] + [(best, witness.cells.tolist())])

    expected = answers()
    monkeypatch.setattr(exact, "_KEY_LIMIT", 0)
    assert answers() == expected


def test_decision_finite2_wide_keys():
    # 16 colors on a 15-wide frontier: the keys need 66 bits.
    ts = builtin_set("finite2")
    assert (ts.num_colors + 1) ** 16 >= 1 << 65
    res = solve_decision(ts, 15, 15)
    assert res.status == INFEASIBLE and res.stats == {"states": 922_769}


@st.composite
def small_sets(draw):
    nc = draw(st.integers(1, 3))
    quads = draw(st.lists(st.tuples(*[st.integers(0, nc - 1)] * 4),
                          min_size=1, max_size=5, unique=True))
    return TileSet([Tile(*q) for q in quads], num_colors=nc)


@settings(max_examples=60, deadline=None)
@given(small_sets(), st.integers(1, 2), st.integers(1, 3))
def test_rectangle_sweep_agrees_with_enumeration(ts, h, w):
    res = solve_decision(ts, h, w)
    assert (res.status == VALID) == naive_full_tiling_exists(ts, h, w)
    if res.status == VALID:
        assert validate_tiling(ts, res.witness).is_valid
    best, witness = max_cover_oracle(ts, h, w)
    assert best == naive_max_cover(ts, h, w) == witness.placed
    assert validate_tiling(ts, witness).is_valid


def test_decision_boundary_conditions_respected():
    ts = complete_stochastic_set(2)
    bcs = [wt.ForceEdgeColor(1, j, "n", 1) for j in range(1, 5)]
    bcs += [wt.ForbidTile(2, 2, 0)]
    res = solve_decision(ts, 3, 4, bcs=bcs)
    assert res.status == VALID
    for j in range(1, 5):
        assert ts.norths[res.witness.get(1, j)] == 1
    assert res.witness.get(2, 2) != 0


# -- torus ---------------------------------------------------------------------

def test_torus_complete1():
    res = smallest_torus(complete_stochastic_set(1), 4)
    assert res.min_area == 1 and res.dims == (1, 1) and res.count == 1


def test_torus_fig3():
    # Independent reading: the only tile with north==south and west==east is
    # (0,1,0,1), so the minimum is the 1x1 torus with exactly one labeling.
    ts = builtin_set("fig3")
    singles = [t for t in ts if t.north == t.south and t.west == t.east]
    assert len(singles) == 1
    res = smallest_torus(ts, 12)
    assert res.min_area == 1 and res.count == 1
    assert res.witnesses[0].get(1, 1) == 1


def test_torus_none_when_out_of_budget():
    one_way = TileSet([Tile(0, 0, 1, 1)], num_colors=2)
    assert smallest_torus(one_way, 6) is None


def test_torus_witnesses_tile_the_plane():
    ts = wt.corner_to_wang(wt.translate_horizontal(builtin_set("ammann16")).corners, 6)
    res = smallest_torus(ts, 6)
    for witness in res.witnesses:
        tiled = np.tile(witness.cells, (2, 2))
        assert validate_tiling(ts, Tiling(tiled)).is_valid


def test_smallest_torus_one_witness_per_shape():
    ts = TileSet([(0, 0, 0, 1), (0, 1, 0, 0), (0, 2, 1, 2), (1, 2, 0, 2)],
                 num_colors=3)
    res = smallest_torus(ts, 6)
    assert res.min_area == 2
    assert res.dim_counts == (((1, 2), 2), ((2, 1), 2))
    assert len(res.witnesses) == len(res.dim_counts)
    for witness, (dims, _) in zip(res.witnesses, res.dim_counts):
        assert witness.cells.shape == dims
        tiled = np.tile(witness.cells, (2, 2))
        assert validate_tiling(ts, Tiling(tiled)).is_valid


def test_count_torus_counts_labelings():
    # complete(2) on a 1x1 torus: tiles with n==s and w==e: 2*2 choices.
    c2 = complete_stochastic_set(2)
    count, wits = count_torus(c2, 1, 1)
    assert count == 4
    assert len(wits) == 1


def test_count_torus_complete_closed_form():
    # Every coloring of the 2hw torus edges is tiled by exactly one labeling.
    c2 = complete_stochastic_set(2)
    assert count_torus(c2, 4, 4)[0] == 2 ** 32
    assert count_torus(c2, 3, 4)[0] == 2 ** 24


def test_count_torus_long_strips():
    c1 = complete_stochastic_set(1)
    for h, w in [(1, 1200), (1200, 1)]:
        count, wits = count_torus(c1, h, w)
        assert count == 1 and len(wits) == 1
        assert wits[0].cells.shape == (h, w) and wits[0].placed == h * w


def test_smallest_torus_none_without_small_period():
    assert smallest_torus(builtin_set("finite1"), 30) is None


def test_count_torus_agrees_with_enumeration():
    rng = random.Random(23)
    for _ in range(25):
        ts = random_tileset(rng, max_colors=3, max_tiles=4)
        for (h, w) in [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (1, 6)]:
            expected = set(naive_torus_tilings(ts, h, w))
            count, wits = count_torus(ts, h, w)
            assert count == len(expected)
            assert len(wits) == min(1, count)
            labelings = {tuple(t.cells.flatten().tolist()) for t in wits}
            assert len(labelings) == len(wits) and labelings <= expected
            for t in wits:
                tiled = Tiling(np.tile(t.cells, (2, 2)))
                assert validate_tiling(ts, tiled).is_valid


def test_periodic_decision_agrees_with_enumeration():
    rng = random.Random(29)
    for n in range(30):
        ts = random_tileset(rng, max_colors=3, max_tiles=4 if n % 3 else 2)
        for (h, w) in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 2)] + (
                [] if n % 3 else [(3, 4)]):
            found = naive_torus_tilings(ts, h, w)
            i, j, k = rng.randint(1, h), rng.randint(1, w), rng.randrange(len(ts))
            forced = [a for a in found if a[(i - 1) * w + j - 1] == k]
            for bcs, expected in (([PeriodicFixed()], found),
                                  ([PeriodicFixed(), ForceTile(i, j, k)], forced)):
                res = solve_decision(ts, h, w, bcs)
                assert res.status == (VALID if expected else INFEASIBLE)
                if expected:
                    assert tuple(res.witness.cells.flatten().tolist()) in expected
                    tiled = Tiling(np.tile(res.witness.cells, (2, 2)))
                    assert validate_tiling(ts, tiled).is_valid


def test_torus_bad_area():
    with pytest.raises(ConfigurationError):
        smallest_torus(builtin_set("fig3"), 0)


# -- packing -------------------------------------------------------------------

def test_pack_complete2_periodic():
    ts = complete_stochastic_set(2)
    res = pack_tiles(ts, 4, 4, periodic=True)
    assert res.status == VALID
    cells = res.witness.cells
    assert sorted(cells.flatten().tolist()) == list(range(16))
    assert validate_tiling(ts, res.witness).is_valid
    for i in range(4):
        assert ts.easts[cells[i, 3]] == ts.wests[cells[i, 0]]
    for j in range(4):
        assert ts.souths[cells[3, j]] == ts.norths[cells[0, j]]


def test_pack_nonperiodic():
    ts = complete_stochastic_set(2)
    res = pack_tiles(ts, 2, 8)
    assert res.status == VALID
    assert validate_tiling(ts, res.witness).is_valid
    assert sorted(res.witness.cells.flatten().tolist()) == list(range(16))


def test_pack_cardinality_error():
    with pytest.raises(ConfigurationError):
        pack_tiles(TileSet([Tile(0, 0, 0, 0), Tile(1, 1, 1, 1)]), 1, 1)
    with pytest.raises(ConfigurationError, match="must be positive"):
        pack_tiles(builtin_set("fig3"), -1, -3)


def test_pack_deadline_capped():
    ts = complete_stochastic_set(3)
    res = pack_tiles(ts, 9, 9, periodic=True, deadline=0.0)
    assert res.status == CAPPED


def test_pack_rejects_an_unusable_deadline():
    ts = complete_stochastic_set(3)
    for deadline in (float("nan"), -1):
        with pytest.raises(ConfigurationError, match="deadline"):
            pack_tiles(ts, 9, 9, periodic=True, deadline=deadline)
    assert pack_tiles(complete_stochastic_set(2), 4, 4,
                      deadline=float("inf")).status == VALID


def test_pack_long_chain():
    # 1100 cells, more than the interpreter's recursion limit: the search
    # must not recurse once per cell.
    chain = TileSet([Tile(0, c, 0, c + 1) for c in range(1100)])
    res = pack_tiles(chain, 1, 1100)
    assert res.status == VALID
    assert res.witness.cells[0].tolist() == list(range(1100))


def test_pack_keeps_the_benchmarks_keyword():
    ts = complete_stochastic_set(2)
    kept, res = pack_tiles(ts, 4, 4, most_constrained=True), pack_tiles(ts, 4, 4)
    assert kept.stats["nodes"] == res.stats["nodes"]
    assert kept.witness.cells.tolist() == res.witness.cells.tolist()
    with pytest.raises(ConfigurationError, match="one order"):
        pack_tiles(ts, 4, 4, most_constrained=False)


def test_pack_infeasible_when_no_arrangement():
    ts = TileSet([Tile(0, 0, 0, 0), Tile(1, 1, 1, 1)], num_colors=2)
    res = pack_tiles(ts, 1, 2)
    assert res.status == INFEASIBLE


def test_pack_agrees_with_enumeration():
    # A cell of a one-wide torus is its own neighbour across the wrap.
    rng = random.Random(14)
    for n in range(300):
        h, w = PACK_SHAPES[n % len(PACK_SHAPES)]
        ts = random_packing_set(rng, h * w)
        for periodic in (False, True):
            exists = naive_packing_exists(ts, h, w, periodic)
            res = pack_tiles(ts, h, w, periodic=periodic)
            assert res.status == (VALID if exists else INFEASIBLE)
            if not exists:
                continue
            cells = res.witness.cells
            assert sorted(cells.flatten().tolist()) == list(range(h * w))
            tiled = np.tile(cells, (2, 2)) if periodic else cells
            assert validate_tiling(ts, Tiling(tiled)).is_valid


# -- maximum-cover oracle --------------------------------------------------------

def test_oracle_fig3_2x2():
    best, witness = max_cover_oracle(builtin_set("fig3"), 2, 2)
    assert best == 4
    assert witness.placed == 4


def test_oracle_single_tile_cases():
    one = TileSet([Tile(0, 0, 1, 1)], num_colors=2)
    assert max_cover_oracle(one, 1, 2)[0] == 1
    assert max_cover_oracle(one, 1, 1)[0] == 1


def test_oracle_matches_naive_enumeration():
    rng = random.Random(9)
    for _ in range(25):
        ts = random_tileset(rng, max_colors=3, max_tiles=4)
        for (h, w) in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)]:
            best, witness = max_cover_oracle(ts, h, w)
            assert best == naive_max_cover(ts, h, w)
            assert validate_tiling(ts, witness).is_valid
            assert witness.placed == best


def test_oracle_budget_error():
    with pytest.raises(BudgetExceededError,
                       match=r"stored \d+ states, past its budget of 50, in row 1$"):
        max_cover_oracle(complete_stochastic_set(3), 4, 4, budget_states=50)
    with pytest.raises(BudgetExceededError, match=r"in column 2$"):
        max_cover_oracle(builtin_set("finite1"), 3, 8, budget_states=200)


def test_oracle_wide_grid_raises_budget_error():
    # Isolated tiles on a 40-wide grid have a frontier exponential in the
    # width; the sweep must stop at its budget, not overflow the stack.  A
    # small budget keeps the test light: each state is a 41-digit base-3
    # key, past 64 bits, so the sweep holds it as a Python int.
    one = TileSet([Tile(0, 0, 1, 1)], num_colors=2)
    with pytest.raises(BudgetExceededError):
        max_cover_oracle(one, 40, 40, budget_states=100_000)
