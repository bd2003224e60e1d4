import copy
import hashlib
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import wangtiler as wt
from wangtiler import (ConfigurationError, Tile, TileSet, VOID, builtin_set,
                       complete_stochastic_set, cover, max_cover_oracle,
                       max_row_cover, validate_tiling)
from wangtiler.bench import resolve_set
from wangtiler.heuristics import (INF, _draws, _kernel, _lowest, _schedule,
                                  _tie_order, build_layered_dag, shortest_row)

from helpers import (insertion_order_row, naive_row_min_cost, naive_row_min_voids,
                     random_tileset, reference_shortest_row)

BUILTINS = ["fig3", "finite1", "finite2", "ammann16"]
INITS = ("simple", "half", "twothirds")


def free(ts, width):
    """Unconstrained sides for every column."""
    return [(0,) * ts.num_colors] * width


def vector(ts, colors, miss):
    """A side vector: 0 for the given colors, ``miss`` units for the rest."""
    return tuple(0 if c in colors else miss for c in range(ts.num_colors))


# -- penalties and the DAG kernel ---------------------------------------------

def test_kernel_weight_per_miss_count():
    # One tile with north and south color 0; color 1 is the miss.
    w = 9
    ts = TileSet([Tile(0, 0, 0, 0)], num_colors=2)
    cases = {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 2, (INF, 0): None,
             (0, INF): None}
    for (n_miss, s_miss), units in cases.items():
        dag = build_layered_dag(ts, w, [(n_miss, 0)] * w, [(s_miss, 0)] * w)
        if units is None:
            assert dag.columns == [[]] * w
        else:
            assert dag.columns == [[(0, 0, units * dag.radix, 0)]] * w
    # A full row that misses on both sides everywhere still costs under one void.
    row, cost = max_row_cover(ts, w, [(1, 0)] * w, [(1, 0)] * w)
    assert VOID not in row
    assert cost == pytest.approx(w / (w + 1)) and cost < 1.0


def test_all_inf_north_vector_leaves_column_void():
    ts = complete_stochastic_set(2)
    width = 5
    north = free(ts, width)
    north[2] = (INF, INF)
    row, cost = max_row_cover(ts, width, north, free(ts, width))
    assert row[2] == VOID
    assert VOID not in row[:2] + row[3:]
    assert int(cost) == 1


def test_dag_size_formulas_unpruned():
    rng = random.Random(5)
    for _ in range(30):
        ts = random_tileset(rng, max_colors=4, max_tiles=8)
        width = rng.randint(1, 7)
        dag = build_layered_dag(ts, width, free(ts, width), free(ts, width))
        W, C, T = width, ts.num_colors, len(ts)
        assert dag.vertex_count == 2 + (W + 1) * C + W
        assert dag.edge_count == 2 * C + 2 * W * C + W * T


def test_max_row_cover_fig3_full_row():
    ts = builtin_set("fig3")
    row, cost = max_row_cover(ts, 3, free(ts, 3), free(ts, 3))
    assert VOID not in row
    assert cost == 0.0


def test_max_row_cover_forced_void():
    ts = TileSet([Tile(0, 0, 1, 1)], num_colors=2)
    row, cost = max_row_cover(ts, 2, free(ts, 2), free(ts, 2))
    assert sorted(row) == [VOID, 0]
    assert int(cost) == 1


def test_max_row_cover_width_one():
    for name in BUILTINS:
        ts = builtin_set(name)
        row, cost = max_row_cover(ts, 1, free(ts, 1), free(ts, 1))
        assert row[0] != VOID and cost == 0.0


def test_max_row_cover_rejects_zero_width():
    # and a negative or float one, in build_layered_dag too, with the set's
    # shared kernel or without one
    ts = builtin_set("fig3")
    for width, message in ((0, "positive"), (-1, "positive"), (2.0, "an integer")):
        for kernel in (None, _kernel(ts)):
            for solve in (max_row_cover, build_layered_dag):
                with pytest.raises(ConfigurationError, match=f"width must be {message}"):
                    solve(ts, width, [], [], kernel=kernel)


def test_max_row_cover_rejects_vectors_of_the_wrong_length():
    ts = builtin_set("fig3")
    for short in ([(0,)] * 2, [(0, 0), (0, 0, 0)]):
        with pytest.raises(ConfigurationError, match="one entry per color"):
            max_row_cover(ts, 2, short, free(ts, 2))
        with pytest.raises(ConfigurationError, match="one entry per color"):
            max_row_cover(ts, 2, free(ts, 2), short)
    with pytest.raises(ConfigurationError, match="one entry per column"):
        max_row_cover(ts, 2, free(ts, 1), free(ts, 2))


def test_max_row_cover_rejects_entries_other_than_0_1_inf():
    ts = builtin_set("fig3")
    for bad in ((0, 2), (0, 0.5), (-1, 0)):
        with pytest.raises(ConfigurationError, match="0, 1 or INF"):
            max_row_cover(ts, 2, [bad] * 2, free(ts, 2))


def test_max_row_cover_hard_constraints_prune():
    ts = builtin_set("fig3")
    # north colors forced to 1: only tile 2 has north 1
    row, _ = max_row_cover(ts, 2, [vector(ts, {1}, INF)] * 2, free(ts, 2))
    for k in row:
        assert k == VOID or ts.norths[k] == 1


def test_max_row_cover_soft_constraints_bias():
    ts = complete_stochastic_set(2)
    width = 4
    soft = [vector(ts, {1}, 1)] * width
    row, cost = max_row_cover(ts, width, soft, free(ts, width))
    assert all(k != VOID and ts.norths[k] == 1 for k in row)
    assert cost == 0.0


def test_max_row_cover_void_count_is_integer_part_of_cost():
    rng = random.Random(6)
    for _ in range(40):
        ts = random_tileset(rng)
        width = rng.randint(1, 6)
        south = [vector(ts, {0}, 1) if rng.random() < 0.4 else (0,) * ts.num_colors
                 for _ in range(width)]
        row, cost = max_row_cover(ts, width, free(ts, width), south)
        assert row.count(VOID) == int(cost)


def test_max_row_cover_optimal_vs_row_brute_force():
    # 200 random small instances: shortest path voids == brute-force minimum.
    rng = random.Random(7)
    for _ in range(200):
        ts = random_tileset(rng, max_colors=3, max_tiles=6)
        width = rng.randint(1, 5)
        row, _ = max_row_cover(ts, width, free(ts, width), free(ts, width))
        assert row.count(VOID) == naive_row_min_voids(ts, width)


def test_max_row_cover_optimal_under_soft_and_hard_vectors():
    # 200 random small instances with free, soft and hard sides per column:
    # the row's (voids, penalty units) == the brute-force lexicographic minimum.
    rng = random.Random(8)

    def side(ts):
        colors = {c for c in range(ts.num_colors) if rng.random() < 0.5}
        return vector(ts, colors, rng.choice((0, 1, INF)))

    for _ in range(200):
        ts = random_tileset(rng, max_colors=3, max_tiles=6)
        width = rng.randint(1, 5)
        north = [side(ts) for _ in range(width)]
        south = [side(ts) for _ in range(width)]
        order = rng.sample(range(len(ts)), len(ts))
        row, cost = max_row_cover(ts, width, north, south, order)
        placed = [(j, k) for j, k in enumerate(row) if k != VOID]
        assert all(ts.easts[a] == ts.wests[b] for a, b in zip(row, row[1:])
                   if VOID not in (a, b))
        units = sum(north[j][ts.norths[k]] + south[j][ts.souths[k]]
                    for j, k in placed)
        voids = width - len(placed)
        assert (voids, units) == naive_row_min_cost(ts, width, north, south)
        assert cost == (voids * 2 * (width + 1) + units) / (2 * (width + 1))


def test_rank_keys_break_ties_like_insertion_order():
    # Ties between tiles go to the first in the order and the void wins only
    # when strictly cheaper, exactly as a loop visiting tiles in that order.
    rng = random.Random(9)
    for _ in range(300):
        ts = random_tileset(rng, max_colors=3, max_tiles=8)
        width = rng.randint(1, 7)
        north = [vector(ts, {rng.randrange(ts.num_colors)}, rng.choice((0, 1, INF)))
                 for _ in range(width)]
        south = [vector(ts, {rng.randrange(ts.num_colors)}, rng.choice((0, 1)))
                 for _ in range(width)]
        order = rng.sample(range(len(ts)), len(ts))
        row, _ = max_row_cover(ts, width, north, south, order)
        assert row == insertion_order_row(ts, width, north, south, order)


@st.composite
def row_sets(draw):
    """complete:2 to complete:4, or up to 40 random tiles over 2 or 3 colors."""
    n = draw(st.integers(0, 3))
    if n:
        return complete_stochastic_set(n + 1)
    nc = draw(st.integers(2, 3))
    color = st.integers(0, nc - 1)
    quads = draw(st.sets(st.tuples(color, color, color, color), min_size=1, max_size=40))
    return TileSet([Tile(*q) for q in sorted(quads)], num_colors=nc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_folded_row_kernel_equals_the_plain_dp(data):
    # The search walks one edge per (west, east, units) group where the
    # kernel keeps a grouping; every row and cost must be those of the DP
    # over every edge of the paper's graph.  Several lines share the kernel.
    ts = data.draw(row_sets())
    width = data.draw(st.integers(1, 8))
    kernel = _kernel(ts)
    side = st.tuples(*[st.sampled_from((0, 1, INF))] * ts.num_colors).map(kernel.intern)
    for _ in range(3):
        north = data.draw(st.lists(side, min_size=width, max_size=width))
        south = data.draw(st.lists(side, min_size=width, max_size=width))
        order = data.draw(st.permutations(range(len(ts))))
        dag = build_layered_dag(ts, width, north, south, order, kernel)
        assert max_row_cover(ts, width, north, south, order, kernel) \
            == reference_shortest_row(dag)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_complete_kernels_fold_their_free_pair(n):
    # n**4 tiles fall into n*n (west, east) groups on the free pair, and a
    # pair that fixes one north color keeps n**3 edges in n*n groups too.
    kernel = _kernel(complete_stochastic_set(n))
    free_pair = (kernel.free, kernel.free)
    assert len(kernel[free_pair]) == n ** 4
    assert len(kernel.groups[free_pair]) == n * n
    fixed = (kernel.hard[0][0], kernel.free)
    assert len(kernel[fixed]) == n ** 3 and len(kernel.groups[fixed]) == n * n


def test_paper_sets_keep_no_grouping():
    # Folding pays only where it at least halves a pair's edges; on the
    # paper's sets no pair a cover meets does, so their kernels keep none.
    # Both sizes share one kernel on the set and one on its reflection.
    for name in BUILTINS:
        ts = builtin_set(name)
        for size in (20, 100):
            for init in INITS:
                cover(ts, size, size, init, 0)
        kernels = [ts._kernel, ts.reflected()._kernel]
        assert [k.ts for k in kernels] == [ts, ts.reflected()]
        assert all(len(k) and not k.groups for k in kernels), name


@pytest.mark.parametrize("order", [[0, 0, 1], [2, 1], [0, 1, 2, 0], [0, 1, 3],
                                   [-1, 0, 1], [-3, 1, 2], [0, 1.0, 2], [0, None, 2]])
def test_build_layered_dag_refuses_an_order_that_is_not_a_permutation(order):
    # A repeated id used to place it in every column, a short order raised a
    # bare IndexError and a long one changed the radix of the keys.
    ts = builtin_set("fig3")
    with pytest.raises(ConfigurationError, match="permutation of the 3 tile ids"):
        max_row_cover(ts, 3, free(ts, 3), free(ts, 3), order=order)


def test_tie_order_draws_what_random_shuffle_draws():
    # The cover's tie-break order is CPython's shuffle of the tile ids, bit
    # for bit, and leaves the generator where shuffle leaves it; if shuffle
    # ever draws differently, this fails instead of every pin moving.
    for n in (1, 2, 3, 7, 16, 256):
        draws = _draws(n)
        for seed in range(50):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(20):
                expected = list(range(n))
                theirs.shuffle(expected)
                assert _tie_order(ours, draws) == expected
            assert ours.random() == theirs.random()


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=12), st.integers(1, 300))
def test_lowest_is_the_first_color_of_least_distance(keys, radix):
    dist = [key - key % radix for key in keys]
    assert _lowest(keys, radix) == dist.index(min(dist))


def test_shortest_row_deterministic_for_fixed_order():
    ts = builtin_set("finite1")
    width = 6
    dag = build_layered_dag(ts, width, free(ts, width), free(ts, width))
    assert shortest_row(dag) == shortest_row(dag)


# -- row orders -----------------------------------------------------------------

def _order(init, height):
    """The schedule's rows, 1-based, in visiting order."""
    return [row + 1 for row, _, _ in _schedule(init, height)]


def test_order_half():
    assert _order("half", 1) == [1]
    assert _order("half", 2) == [1, 2]
    assert _order("half", 5) == [1, 3, 2, 5, 4]
    assert _order("half", 6) == [1, 3, 2, 5, 4, 6]
    assert sorted(set(_order("half", 9))) == list(range(1, 10))


def test_order_two_thirds():
    assert _order("twothirds", 1) == [1]
    assert _order("twothirds", 5) == [1, 4, 3, 2, 3, 5]
    assert _order("twothirds", 9)[:9] == [1, 4, 3, 2, 3, 7, 6, 5, 6]
    assert sorted(set(_order("twothirds", 15))) == list(range(1, 16))


@pytest.mark.parametrize("init", ["half", "twothirds"])
def test_schedule_invariants(init):
    for height in range(1, 31):
        steps = _schedule(init, height)
        assert sorted({row for row, _, _ in steps}) == list(range(height))
        for row, lookahead, _ in steps:
            # A lookahead row reads the row lookahead + 1 above it, if any.
            assert lookahead == 0 or row == 0 or row > lookahead
        # An odd-columns pass is its row's first visit, and a plain revisit
        # of the row follows it.
        for n, (row, _, odd) in enumerate(steps):
            if odd:
                assert row not in [r for r, _, _ in steps[:n]]
                assert (row, 0, False) in steps[n + 1:]


# -- cover algorithms -------------------------------------------------------------

def test_alg1_complete2_full():
    r = cover(complete_stochastic_set(2), 20, 20, "simple", seed=0, improve=False)
    assert r.placed == 400


def test_alg1_single_row_equals_kernel():
    for name in BUILTINS:
        ts = builtin_set(name)
        r = cover(ts, 1, 7, "simple", seed=0, improve=False)
        row, cost = max_row_cover(ts, 7, free(ts, 7), free(ts, 7))
        assert r.placed == 7 - row.count(VOID)
        assert r.placed == 7 - int(cost)


def test_alg1_finite1_quality_band():
    ts = builtin_set("finite1")
    placed = [cover(ts, 20, 20, "simple", seed, improve=False).placed
              for seed in range(100)]
    assert 353 <= sum(placed) / len(placed) <= 369


def test_alg2_bound_flag_and_guarantee():
    for name in BUILTINS:
        ts = builtin_set(name)
        r = cover(ts, 15, 15, "half", seed=1, improve=False)
        assert r.bound == "1/2"
        assert r.placed >= math.ceil(225 / 2)


def test_alg2_single_row():
    ts = builtin_set("fig3")
    r = cover(ts, 1, 6, "half", seed=0, improve=False)
    assert r.placed == 6


def test_alg2_stochastic_full():
    assert cover(complete_stochastic_set(2), 25, 25, "half", seed=2,
                 improve=False).placed == 625


def test_alg3_bound_flags():
    assert cover(builtin_set("ammann16"), 9, 9, "twothirds", 0,
                 improve=False).bound == "2/3"
    assert cover(builtin_set("finite2"), 9, 9, "twothirds", 0,
                 improve=False).bound is None


def test_alg3_guarantee_ammann():
    for seed in range(10):
        r = cover(builtin_set("ammann16"), 15, 15, "twothirds", seed,
                  improve=False)
        assert r.placed >= math.ceil(2 * 225 / 3)


def test_alg3_single_row_full():
    r = cover(builtin_set("fig3"), 1, 8, "twothirds", seed=0, improve=False)
    assert r.placed == 8


def test_alg3_stochastic_full():
    assert cover(complete_stochastic_set(2), 12, 12, "twothirds", seed=3,
                 improve=False).placed == 144


def test_alg4_never_below_init():
    for name in BUILTINS:
        ts = builtin_set(name)
        for init in INITS:
            for seed in (0, 1, 2):
                base = cover(ts, 9, 9, init, seed, improve=False)
                improved = cover(ts, 9, 9, init, seed)
                assert improved.placed >= base.placed
                assert improved.bound == base.bound


def test_alg4_sweeps_bounded():
    for name in BUILTINS:
        r = cover(builtin_set(name), 9, 9, "simple", seed=4)
        assert r.sweeps <= 81


def test_alg4_stochastic_all_inits_full():
    ts = complete_stochastic_set(2)
    for init in ("simple", "half", "twothirds"):
        assert cover(ts, 12, 12, init, seed=5).placed == 144


def test_alg4_finite2_quality_band():
    ts = builtin_set("finite2")
    placed = [cover(ts, 20, 20, "simple", seed).placed for seed in range(100)]
    avg = sum(placed) / len(placed)
    assert 344.36 * 0.95 <= avg <= 344.36 * 1.05


def test_alg4_bad_init():
    with pytest.raises(ConfigurationError):
        cover(builtin_set("fig3"), 2, 2, "fancy", seed=0)


@pytest.mark.parametrize("h, w", [(0, 2), (2, 0), (-1, -1)])
def test_cover_rejects_a_grid_without_cells(h, w):
    with pytest.raises(ConfigurationError, match="grid dimensions must be positive"):
        cover(builtin_set("fig3"), h, w, "simple", seed=0)


def test_all_runs_sound_and_seeded():
    rng = random.Random(8)
    for _ in range(15):
        ts = random_tileset(rng)
        h, w = rng.randint(1, 5), rng.randint(1, 5)
        for init in INITS:
            r1 = cover(ts, h, w, init, seed=13, improve=False)
            r2 = cover(ts, h, w, init, seed=13, improve=False)
            assert validate_tiling(ts, r1.tiling).is_valid
            assert r1.tiling == r2.tiling
            assert r1.placed == r1.tiling.placed
        r = cover(ts, h, w, "simple", seed=13)
        assert validate_tiling(ts, r.tiling).is_valid


def test_heuristics_never_beat_oracle():
    rng = random.Random(10)
    for _ in range(25):
        ts = random_tileset(rng)
        h, w = rng.randint(1, 3), rng.randint(1, 3)
        best, _ = max_cover_oracle(ts, h, w)
        for init in INITS:
            assert cover(ts, h, w, init, seed=2, improve=False).placed <= best
        assert cover(ts, h, w, "simple", seed=2).placed <= best


def test_half_bound_is_a_share_of_the_optimum_not_of_the_grid():
    # No 3x3 cover of these two tiles is full: the half schedule places 4,
    # under half of the 9 cells but not under half of the optimum, 5.
    ts = TileSet([Tile(1, 1, 0, 3), Tile(1, 2, 2, 1)], num_colors=4)
    r = cover(ts, 3, 3, "half", seed=24, improve=False)
    best, _ = max_cover_oracle(ts, 3, 3)
    assert (r.placed, r.bound, best) == (4, "1/2", 5)
    assert r.placed < Fraction(r.bound) * 9
    assert r.placed >= Fraction(r.bound) * best


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6),
       st.sampled_from(INITS), st.integers(0, 99), st.booleans())
def test_bound_holds_against_the_optimum(set_seed, h, w, init, seed, improve):
    ts = random_tileset(random.Random(set_seed))
    r = cover(ts, h, w, init, seed, improve)
    if r.bound is not None:
        best, _ = max_cover_oracle(ts, h, w)
        assert r.placed >= Fraction(r.bound) * best


# -- behaviour pinned by seed -----------------------------------------------------

# The first 16 hex digits of the SHA-256 of the tiling's cells as
# little-endian int32 bytes, then (placed, iterations, sweeps, bound), as the
# separate entry points alg1_simple, alg2_half, alg3_twothirds and
# alg4_improve gave them before ``cover`` replaced them.  A change that moves
# any entry says why in CHANGES.md.  A full run with improvement equals
# its improve=False run (test_full_runs_keep_their_init_tiling).
PINNED = {
    ("fig3", 7, 9, "simple", False, 0): ("871f414abb78245b", 63, 7, 0, None),
    ("fig3", 7, 9, "simple", False, 1): ("48edee360f2fa003", 63, 7, 0, None),
    ("fig3", 7, 9, "simple", False, 2): ("48edee360f2fa003", 63, 7, 0, None),
    ("fig3", 7, 9, "simple", True, 0): ("871f414abb78245b", 63, 7, 0, None),
    ("fig3", 7, 9, "simple", True, 1): ("48edee360f2fa003", 63, 7, 0, None),
    ("fig3", 7, 9, "simple", True, 2): ("48edee360f2fa003", 63, 7, 0, None),
    ("fig3", 7, 9, "half", False, 0): ("cb5d4ea868413c95", 59, 7, 0, "1/2"),
    ("fig3", 7, 9, "half", False, 1): ("d039a72d4f1ee284", 60, 7, 0, "1/2"),
    ("fig3", 7, 9, "half", False, 2): ("b5f4e0fcb5e86d9a", 56, 7, 0, "1/2"),
    ("fig3", 7, 9, "half", True, 0): ("9b04ca4688d929e7", 60, 23, 2, "1/2"),
    ("fig3", 7, 9, "half", True, 1): ("9f02a2decf67a840", 60, 16, 1, "1/2"),
    ("fig3", 7, 9, "half", True, 2): ("cedf06c6261eeacc", 58, 32, 3, "1/2"),
    ("fig3", 7, 9, "twothirds", False, 0): ("de08c5477e0b952c", 55, 9, 0, "2/3"),
    ("fig3", 7, 9, "twothirds", False, 1): ("62287a035efcde1d", 51, 9, 0, "2/3"),
    ("fig3", 7, 9, "twothirds", False, 2): ("7ea94dffcd4dbe87", 51, 9, 0, "2/3"),
    ("fig3", 7, 9, "twothirds", True, 0): ("da68e978dddb2430", 55, 18, 1, "2/3"),
    ("fig3", 7, 9, "twothirds", True, 1): ("7cbea0f7c9b8e9f3", 55, 25, 2, "2/3"),
    ("fig3", 7, 9, "twothirds", True, 2): ("e9e96131b86d9690", 55, 25, 2, "2/3"),
    ("fig3", 12, 12, "simple", False, 0): ("9947b8593a1a7286", 144, 12, 0, None),
    ("fig3", 12, 12, "simple", False, 1): ("292309784b7b5771", 144, 12, 0, None),
    ("fig3", 12, 12, "simple", False, 2): ("292309784b7b5771", 144, 12, 0, None),
    ("fig3", 12, 12, "simple", True, 0): ("9947b8593a1a7286", 144, 12, 0, None),
    ("fig3", 12, 12, "simple", True, 1): ("292309784b7b5771", 144, 12, 0, None),
    ("fig3", 12, 12, "simple", True, 2): ("292309784b7b5771", 144, 12, 0, None),
    ("fig3", 12, 12, "half", False, 0): ("e6bd8a59835346ef", 127, 12, 0, "1/2"),
    ("fig3", 12, 12, "half", False, 1): ("4cc896e6b2686f13", 128, 12, 0, "1/2"),
    ("fig3", 12, 12, "half", False, 2): ("2233cab7e3c96cb1", 131, 12, 0, "1/2"),
    ("fig3", 12, 12, "half", True, 0): ("d4cb85a2dc5d2a6d", 140, 48, 3, "1/2"),
    ("fig3", 12, 12, "half", True, 1): ("7a94aadeef3ade35", 138, 48, 3, "1/2"),
    ("fig3", 12, 12, "half", True, 2): ("f0e7717784b76aac", 138, 48, 3, "1/2"),
    ("fig3", 12, 12, "twothirds", False, 0): ("9e33b26c9c3c9a88", 118, 16, 0, "2/3"),
    ("fig3", 12, 12, "twothirds", False, 1): ("08f664523550830f", 114, 16, 0, "2/3"),
    ("fig3", 12, 12, "twothirds", False, 2): ("f864d5a301f7ddc9", 131, 16, 0, "2/3"),
    ("fig3", 12, 12, "twothirds", True, 0): ("59ed69b3b6c3dd57", 137, 52, 3, "2/3"),
    ("fig3", 12, 12, "twothirds", True, 1): ("53224add780374cd", 138, 52, 3, "2/3"),
    ("fig3", 12, 12, "twothirds", True, 2): ("aded919925d1d201", 135, 40, 2, "2/3"),
    ("finite1", 7, 9, "simple", False, 0): ("c22d9edc961f9b99", 57, 7, 0, None),
    ("finite1", 7, 9, "simple", False, 1): ("09666b45643f4d4d", 57, 7, 0, None),
    ("finite1", 7, 9, "simple", False, 2): ("8b433f4da2b907bf", 59, 7, 0, None),
    ("finite1", 7, 9, "simple", True, 0): ("548f4d29fea9fd20", 57, 16, 1, None),
    ("finite1", 7, 9, "simple", True, 1): ("a57601349b06c60d", 57, 16, 1, None),
    ("finite1", 7, 9, "simple", True, 2): ("4af5ddca49d1543c", 59, 16, 1, None),
    ("finite1", 7, 9, "half", False, 0): ("05359dcc472934e6", 57, 7, 0, "1/2"),
    ("finite1", 7, 9, "half", False, 1): ("985ac0f4a38d37f7", 55, 7, 0, "1/2"),
    ("finite1", 7, 9, "half", False, 2): ("2b5f62584276502e", 57, 7, 0, "1/2"),
    ("finite1", 7, 9, "half", True, 0): ("76acb4816cb22df5", 61, 32, 3, "1/2"),
    ("finite1", 7, 9, "half", True, 1): ("e1b4cfc3374d72bd", 57, 32, 3, "1/2"),
    ("finite1", 7, 9, "half", True, 2): ("443345f2972ba9d9", 60, 32, 3, "1/2"),
    ("finite1", 7, 9, "twothirds", False, 0): ("a1bf52e3bad6fc06", 53, 9, 0, "2/3"),
    ("finite1", 7, 9, "twothirds", False, 1): ("40c2fb9ab9110089", 55, 9, 0, "2/3"),
    ("finite1", 7, 9, "twothirds", False, 2): ("68e3126ade2b49a2", 56, 9, 0, "2/3"),
    ("finite1", 7, 9, "twothirds", True, 0): ("c51077f5fb47b3d7", 53, 18, 1, "2/3"),
    ("finite1", 7, 9, "twothirds", True, 1): ("871233ad5d59931a", 56, 25, 2, "2/3"),
    ("finite1", 7, 9, "twothirds", True, 2): ("9666c38f053fa948", 56, 18, 1, "2/3"),
    ("finite1", 12, 12, "simple", False, 0): ("e5a5ad935d274b07", 131, 12, 0, None),
    ("finite1", 12, 12, "simple", False, 1): ("9ecf13e118d4e856", 129, 12, 0, None),
    ("finite1", 12, 12, "simple", False, 2): ("e2de9c83ad46e436", 128, 12, 0, None),
    ("finite1", 12, 12, "simple", True, 0): ("75c3baf93fda3d59", 133, 48, 3, None),
    ("finite1", 12, 12, "simple", True, 1): ("1788fd1c00c263d0", 131, 48, 3, None),
    ("finite1", 12, 12, "simple", True, 2): ("5e7898f3392ee84d", 128, 24, 1, None),
    ("finite1", 12, 12, "half", False, 0): ("7e337a9ce4569175", 129, 12, 0, "1/2"),
    ("finite1", 12, 12, "half", False, 1): ("625dcedceeb120c2", 126, 12, 0, "1/2"),
    ("finite1", 12, 12, "half", False, 2): ("ff41cda8a7e12226", 131, 12, 0, "1/2"),
    ("finite1", 12, 12, "half", True, 0): ("f2a409af229c6982", 138, 60, 4, "1/2"),
    ("finite1", 12, 12, "half", True, 1): ("b4f6663ae1ed059a", 126, 24, 1, "1/2"),
    ("finite1", 12, 12, "half", True, 2): ("bbd8d29e981cf6bd", 135, 48, 3, "1/2"),
    ("finite1", 12, 12, "twothirds", False, 0): ("604ef8704cf4998a", 127, 16, 0, "2/3"),
    ("finite1", 12, 12, "twothirds", False, 1): ("f0c2d9be963f0614", 115, 16, 0, "2/3"),
    ("finite1", 12, 12, "twothirds", False, 2): ("3d52ae9c1aa909ca", 126, 16, 0, "2/3"),
    ("finite1", 12, 12, "twothirds", True, 0): ("f65c352599422752", 129, 52, 3, "2/3"),
    ("finite1", 12, 12, "twothirds", True, 1): ("a1013fa4decd8b16", 122, 52, 3, "2/3"),
    ("finite1", 12, 12, "twothirds", True, 2): ("73fb3c4df107870c", 128, 52, 3, "2/3"),
    ("ammann16", 7, 9, "simple", False, 0): ("5c4a3cb188d90c71", 53, 7, 0, None),
    ("ammann16", 7, 9, "simple", False, 1): ("29709f5459b88568", 56, 7, 0, None),
    ("ammann16", 7, 9, "simple", False, 2): ("276e69fd75a28e60", 56, 7, 0, None),
    ("ammann16", 7, 9, "simple", True, 0): ("16d3930c2b9022bd", 58, 32, 3, None),
    ("ammann16", 7, 9, "simple", True, 1): ("6a7eece30636da07", 56, 16, 1, None),
    ("ammann16", 7, 9, "simple", True, 2): ("b96510d46be1715c", 58, 23, 2, None),
    ("ammann16", 7, 9, "half", False, 0): ("fe014d22df0ec973", 51, 7, 0, "1/2"),
    ("ammann16", 7, 9, "half", False, 1): ("cebe957b29b649e5", 51, 7, 0, "1/2"),
    ("ammann16", 7, 9, "half", False, 2): ("96abe295899f2506", 51, 7, 0, "1/2"),
    ("ammann16", 7, 9, "half", True, 0): ("91b19daf9fc84453", 55, 48, 5, "1/2"),
    ("ammann16", 7, 9, "half", True, 1): ("7ac0554161d80ff6", 51, 16, 1, "1/2"),
    ("ammann16", 7, 9, "half", True, 2): ("67d0064526b0ab1a", 54, 23, 2, "1/2"),
    ("ammann16", 7, 9, "twothirds", False, 0): ("ba214effad825e95", 49, 9, 0, "2/3"),
    ("ammann16", 7, 9, "twothirds", False, 1): ("6ce849f49f0595e8", 47, 9, 0, "2/3"),
    ("ammann16", 7, 9, "twothirds", False, 2): ("9a4ae2fb0913ca4a", 55, 9, 0, "2/3"),
    ("ammann16", 7, 9, "twothirds", True, 0): ("d05307dc57cc862b", 51, 25, 2, "2/3"),
    ("ammann16", 7, 9, "twothirds", True, 1): ("b744347fef773b5e", 55, 57, 6, "2/3"),
    ("ammann16", 7, 9, "twothirds", True, 2): ("286aeaee1519c9f8", 57, 25, 2, "2/3"),
    ("ammann16", 12, 12, "simple", False, 0): ("17ff918eb148f21e", 124, 12, 0, None),
    ("ammann16", 12, 12, "simple", False, 1): ("2c62118784174d9b", 131, 12, 0, None),
    ("ammann16", 12, 12, "simple", False, 2): ("889bdf4f9f50d5b0", 132, 12, 0, None),
    ("ammann16", 12, 12, "simple", True, 0): ("c6e1762f4a3a523e", 131, 48, 3, None),
    ("ammann16", 12, 12, "simple", True, 1): ("8716d71718be7837", 137, 72, 5, None),
    ("ammann16", 12, 12, "simple", True, 2): ("eb303fb58b38a41c", 134, 36, 2, None),
    ("ammann16", 12, 12, "half", False, 0): ("2638e8108607e8f6", 112, 12, 0, "1/2"),
    ("ammann16", 12, 12, "half", False, 1): ("c94327fa75c4607e", 114, 12, 0, "1/2"),
    ("ammann16", 12, 12, "half", False, 2): ("ddd75421f6ea9493", 118, 12, 0, "1/2"),
    ("ammann16", 12, 12, "half", True, 0): ("a814eec16e988a0e", 116, 36, 2, "1/2"),
    ("ammann16", 12, 12, "half", True, 1): ("8e8026fcdc707310", 123, 72, 5, "1/2"),
    ("ammann16", 12, 12, "half", True, 2): ("ba3d7069bc298b49", 123, 36, 2, "1/2"),
    ("ammann16", 12, 12, "twothirds", False, 0): ("305067fae15b7a93", 106, 16, 0, "2/3"),
    ("ammann16", 12, 12, "twothirds", False, 1): ("6500e7bdec6f7fd5", 107, 16, 0, "2/3"),
    ("ammann16", 12, 12, "twothirds", False, 2): ("d33c538ff8998fb1", 108, 16, 0, "2/3"),
    ("ammann16", 12, 12, "twothirds", True, 0): ("696a5eacfbd3432e", 113, 64, 4, "2/3"),
    ("ammann16", 12, 12, "twothirds", True, 1): ("0d400af9cbab014d", 127, 124, 9, "2/3"),
    ("ammann16", 12, 12, "twothirds", True, 2): ("94e33fb0d342419f", 127, 52, 3, "2/3"),
    ("complete:3", 7, 9, "simple", False, 0): ("df9c5243e412c9e7", 63, 7, 0, None),
    ("complete:3", 7, 9, "simple", False, 1): ("50aff0c5677b3875", 63, 7, 0, None),
    ("complete:3", 7, 9, "simple", False, 2): ("438eddf17f7aa437", 63, 7, 0, None),
    ("complete:3", 7, 9, "simple", True, 0): ("df9c5243e412c9e7", 63, 7, 0, None),
    ("complete:3", 7, 9, "simple", True, 1): ("50aff0c5677b3875", 63, 7, 0, None),
    ("complete:3", 7, 9, "simple", True, 2): ("438eddf17f7aa437", 63, 7, 0, None),
    ("complete:3", 7, 9, "half", False, 0): ("7115001cabddd0c0", 63, 7, 0, "1/2"),
    ("complete:3", 7, 9, "half", False, 1): ("7351ba67ae468586", 63, 7, 0, "1/2"),
    ("complete:3", 7, 9, "half", False, 2): ("ffa44ffcb79e4353", 63, 7, 0, "1/2"),
    ("complete:3", 7, 9, "half", True, 0): ("7115001cabddd0c0", 63, 7, 0, "1/2"),
    ("complete:3", 7, 9, "half", True, 1): ("7351ba67ae468586", 63, 7, 0, "1/2"),
    ("complete:3", 7, 9, "half", True, 2): ("ffa44ffcb79e4353", 63, 7, 0, "1/2"),
    ("complete:3", 7, 9, "twothirds", False, 0): ("16a7ac4a6f31db36", 63, 9, 0, "2/3"),
    ("complete:3", 7, 9, "twothirds", False, 1): ("d155c6d8d0d90ca4", 63, 9, 0, "2/3"),
    ("complete:3", 7, 9, "twothirds", False, 2): ("6efdb8833bb0e4c7", 63, 9, 0, "2/3"),
    ("complete:3", 7, 9, "twothirds", True, 0): ("16a7ac4a6f31db36", 63, 9, 0, "2/3"),
    ("complete:3", 7, 9, "twothirds", True, 1): ("d155c6d8d0d90ca4", 63, 9, 0, "2/3"),
    ("complete:3", 7, 9, "twothirds", True, 2): ("6efdb8833bb0e4c7", 63, 9, 0, "2/3"),
    ("complete:3", 12, 12, "simple", False, 0): ("da316281be4b8dbb", 144, 12, 0, None),
    ("complete:3", 12, 12, "simple", False, 1): ("73479c7920a5221b", 144, 12, 0, None),
    ("complete:3", 12, 12, "simple", False, 2): ("ddb5c194cfc971ab", 144, 12, 0, None),
    ("complete:3", 12, 12, "simple", True, 0): ("da316281be4b8dbb", 144, 12, 0, None),
    ("complete:3", 12, 12, "simple", True, 1): ("73479c7920a5221b", 144, 12, 0, None),
    ("complete:3", 12, 12, "simple", True, 2): ("ddb5c194cfc971ab", 144, 12, 0, None),
    ("complete:3", 12, 12, "half", False, 0): ("079cbab6841814a8", 144, 12, 0, "1/2"),
    ("complete:3", 12, 12, "half", False, 1): ("790d85d7a4666c32", 144, 12, 0, "1/2"),
    ("complete:3", 12, 12, "half", False, 2): ("949f287d5bdd41af", 144, 12, 0, "1/2"),
    ("complete:3", 12, 12, "half", True, 0): ("079cbab6841814a8", 144, 12, 0, "1/2"),
    ("complete:3", 12, 12, "half", True, 1): ("790d85d7a4666c32", 144, 12, 0, "1/2"),
    ("complete:3", 12, 12, "half", True, 2): ("949f287d5bdd41af", 144, 12, 0, "1/2"),
    ("complete:3", 12, 12, "twothirds", False, 0): ("48793776495dc9b1", 144, 16, 0, "2/3"),
    ("complete:3", 12, 12, "twothirds", False, 1): ("48c26bc55bf3590b", 144, 16, 0, "2/3"),
    ("complete:3", 12, 12, "twothirds", False, 2): ("5507321ba0ab97d3", 144, 16, 0, "2/3"),
    ("complete:3", 12, 12, "twothirds", True, 0): ("48793776495dc9b1", 144, 16, 0, "2/3"),
    ("complete:3", 12, 12, "twothirds", True, 1): ("48c26bc55bf3590b", 144, 16, 0, "2/3"),
    ("complete:3", 12, 12, "twothirds", True, 2): ("5507321ba0ab97d3", 144, 16, 0, "2/3"),
    # Recorded with the float-weight row kernel, before integer units: many
    # colors (finite2), many tiles (complete:4, re-pinned since) and the long
    # rows of 100x100.
    ("finite2", 20, 20, "half", True, 0): ("5ecf0fa622679222", 342, 220, 10, "1/2"),
    ("complete:4", 20, 20, "simple", True, 0): ("1a7b467c5d65517d", 400, 20, 0, None),
    ("complete:4", 20, 20, "twothirds", True, 0): ("cdda5f59f049349f", 400, 26, 0, "2/3"),
    ("ammann16", 100, 100, "simple", True, 0): ("ea185cf6f289bbdc", 9001, 600, 5, None),
    ("finite1", 100, 100, "simple", True, 0): ("7f12e14e3020cea4", 8799, 1400, 13, None),
}


def _pin(r):
    """A run as its PINNED entry."""
    digest = hashlib.sha256(r.tiling.cells.astype("<i4").tobytes()).hexdigest()[:16]
    return digest, r.placed, r.iterations, r.sweeps, r.bound


def test_cover_tilings_pinned_by_seed():
    for (name, h, w, init, improve, seed), pinned in PINNED.items():
        r = cover(resolve_set(name), h, w, init, seed, improve)
        assert _pin(r) == pinned, (name, h, w, init, improve, seed)


#: runs of both orientations (9x14 and 14x9 share the reflected set's kernel
#: with covers of that set), three widths on one kernel per set, all three
#: inits (the half and twothirds reach vectors), with and without sweeps
SHARED_CASES = [(h, w, init, seed, improve) for h, w in ((9, 14), (14, 9), (20, 20))
                for init in INITS for seed in range(2) for improve in (True, False)]


def test_a_shared_kernel_leaks_nothing_between_runs():
    # A tile set keeps one row kernel across runs; a run on a set already
    # used by other inits, sizes, seeds and orientations, and by covers of
    # its reflected set, gives the same tiling as on a fresh set.  All of
    # them leave one kernel per orientation: the first that was built.
    for name in ("finite1", "finite2", "ammann16", "complete:3"):
        used = resolve_set(name)
        kernels = [_kernel(used), _kernel(used.reflected())]
        for h, w, init, seed, improve in reversed(SHARED_CASES):
            cover(used, h, w, init, seed + 7, improve)
            cover(used.reflected(), h, w, init, seed + 7, improve)
        for case in SHARED_CASES:
            assert _pin(cover(used, *case)) == _pin(cover(resolve_set(name), *case)), \
                (name, case)
        assert used._kernel is kernels[0] and used.reflected()._kernel is kernels[1]


def test_a_set_with_kernels_still_pickles_and_copies():
    for name in ("finite2", "complete:4"):
        ts = resolve_set(name)
        before = _pin(cover(ts, 9, 14, "half", 3))
        for twin in (pickle.loads(pickle.dumps(ts)), copy.deepcopy(ts)):
            assert twin == ts and twin.reflected() == ts.reflected()
            assert _pin(cover(twin, 9, 14, "half", 3)) == before


def test_covers_from_threads_sharing_a_set_equal_serial_covers():
    # Four threads build and share the kernels of one
    # fresh set at once, with frequent thread switches; every run must equal
    # the serial run on its own fresh set.
    names = ("finite2", "complete:3", "complete:4")
    cases = [(name, *case) for name in names for case in SHARED_CASES]
    serial = {case: _pin(cover(resolve_set(case[0]), *case[1:])) for case in cases}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(2):
            shared = {name: resolve_set(name) for name in names}

            def work(shift):
                mine = cases[shift:] + cases[:shift]
                return {case: _pin(cover(shared[case[0]], *case[1:])) for case in mine}
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(work, 11 * t) for t in range(4)]
                results = [f.result(timeout=120) for f in futures]
            assert all(result == serial for result in results)
    finally:
        sys.setswitchinterval(interval)


def test_full_runs_keep_their_init_tiling():
    # A sweep cannot add a tile to a full grid, so the loop runs none: a
    # full run with improvement is the same seed's run without it.
    full = [key for key, pinned in PINNED.items() if key[4]
            and pinned[1] == key[1] * key[2]]
    assert len(full) == 26
    for name, h, w, init, _, seed in full:
        twin = cover(resolve_set(name), h, w, init, seed, improve=False)
        assert PINNED[name, h, w, init, True, seed] == _pin(twin)
