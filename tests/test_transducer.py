import itertools
import random

import numpy as np
import pytest

import wangtiler as wt
from wangtiler import (DUAL, HORIZONTAL, Tile, TileSet, all_states_on_cycles,
                       build_transducer, builtin_set, complete_stochastic_set,
                       parallel_arcs, to_dot, translate_horizontal,
                       translate_vertical)
from wangtiler.transducer import longest_path_at_least, reachable_sets

from helpers import random_tileset


def arcset(g):
    return {(a.from_state, a.to_state, a.input, a.output) for a in g.arcs}


def test_fig3_horizontal_arcs():
    g = build_transducer(builtin_set("fig3"), HORIZONTAL)
    assert arcset(g) == {(1, 0, 1, 0), (1, 1, 0, 0), (0, 1, 0, 1)}


def test_fig3_dual_arcs():
    g = build_transducer(builtin_set("fig3"), DUAL)
    assert arcset(g) == {(0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 1, 0)}
    assert (0, 0, 1, 1) in arcset(g)  # the self-loop labeled 1|1


def test_single_tile_self_loop_both_orientations():
    ts = TileSet([Tile(0, 0, 0, 0)], num_colors=1)
    for orient in (HORIZONTAL, DUAL):
        g = build_transducer(ts, orient)
        assert arcset(g) == {(0, 0, 0, 0)}


def test_arc_count_equals_tile_count():
    rng = random.Random(3)
    for _ in range(25):
        ts = random_tileset(rng)
        for orient in (HORIZONTAL, DUAL):
            assert len(build_transducer(ts, orient).arcs) == len(ts)


def test_bad_orientation():
    with pytest.raises(ValueError):
        build_transducer(builtin_set("fig3"), "diagonal")


def test_dual_equals_reflected_horizontal():
    rng = random.Random(4)
    for _ in range(25):
        ts = random_tileset(rng)
        dual = build_transducer(ts, DUAL)
        refl = build_transducer(ts.reflected(), HORIZONTAL)
        assert arcset(dual) == arcset(refl)


def test_parallel_arcs_ammann16():
    g = build_transducer(builtin_set("ammann16"), HORIZONTAL)
    pairs = parallel_arcs(g)
    assert pairs == [(1, 0, (3, 4))]
    labels = {g.arcs[k].label() for k in pairs[0][2]}
    assert labels == {"2|4", "5|3"}


def test_parallel_arcs_fig3_empty():
    assert parallel_arcs(build_transducer(builtin_set("fig3"), HORIZONTAL)) == []


def test_parallel_arcs_complete_set():
    g = build_transducer(complete_stochastic_set(2), HORIZONTAL)
    pairs = parallel_arcs(g)
    assert len(pairs) == 4  # every ordered state pair over 2 colors
    assert all(len(ids) == 4 for _, _, ids in pairs)


def test_all_states_on_cycles():
    assert all_states_on_cycles(build_transducer(builtin_set("fig3"), HORIZONTAL))
    one_way = TileSet([Tile(0, 0, 1, 1)], num_colors=2)
    assert not all_states_on_cycles(build_transducer(one_way, HORIZONTAL))
    for orient in (HORIZONTAL, DUAL):
        assert all_states_on_cycles(
            build_transducer(builtin_set("ammann16"), orient))


def test_isolated_states_ignored():
    ts = TileSet([Tile(0, 0, 0, 0)], num_colors=5)
    assert all_states_on_cycles(build_transducer(ts, HORIZONTAL))


def test_longest_path_at_least():
    g = build_transducer(builtin_set("fig3"), HORIZONTAL)
    assert longest_path_at_least(g, 2)
    assert longest_path_at_least(g, 0) and longest_path_at_least(g, -3)
    assert longest_path_at_least(g, np.int64(2))
    with pytest.raises(wt.ConfigurationError, match="length must be an integer, got 2.5"):
        longest_path_at_least(g, 2.5)
    one_way = build_transducer(TileSet([Tile(0, 0, 1, 1)], num_colors=2),
                               HORIZONTAL)
    assert longest_path_at_least(one_way, 1)
    assert not longest_path_at_least(one_way, 2)


def test_reachable_sets_dual():
    g = build_transducer(builtin_set("fig3"), DUAL)
    reach1 = reachable_sets(g, 1)
    assert reach1[0] == {0, 1}
    assert reach1[1] == {0}
    reach2 = reachable_sets(g, 2)
    assert reach2[1] == {0, 1}
    with pytest.raises(ValueError, match="distance must be positive"):
        reachable_sets(g, 0)
    with pytest.raises(wt.ConfigurationError, match="distance must be an integer, got 2.0"):
        reachable_sets(g, 2.0)
    assert reachable_sets(g, np.int32(2)) == reach2


def test_translate_single_tile():
    ts = TileSet([Tile(0, 0, 0, 0)], num_colors=1)
    for translate in (translate_horizontal, translate_vertical):
        res = translate(ts)
        assert [c.as_tuple() for c in res.corners] == [(0, 0, 0, 0)]
        assert res.bijective


def test_translate_fig3_matches_pair_enumeration():
    ts = builtin_set("fig3")
    expected = set()
    for p, q in itertools.product(ts, repeat=2):
        if p.east == q.west:
            expected.add((p.north, p.south, q.south, q.north))
    res = translate_horizontal(ts)
    assert {c.as_tuple() for c in res.corners} == expected
    assert list(res.corners) == sorted(res.corners)


def test_translate_ammann16():
    ts = builtin_set("ammann16")
    hor = translate_horizontal(ts)
    ver = translate_vertical(ts)
    assert len(hor) == 44 and len(ver) == 44
    assert not hor.bijective and not ver.bijective
    assert hor.parallel_witnesses and ver.parallel_witnesses
    assert hor.n_vc == 6


def test_translation_injective_without_parallel_arcs():
    # Brute force over all small 2-color sets: when the deciding transducer
    # has no parallel arcs, distinct matching pairs give distinct corners.
    quads = list(itertools.product(range(2), repeat=4))
    rng = random.Random(11)
    for _ in range(200):
        size = rng.randint(1, 4)
        tiles = [Tile(*q) for q in rng.sample(quads, size)]
        ts = TileSet(tiles, num_colors=2)
        pairs = [(p, q) for p, q in itertools.product(ts, repeat=2)
                 if p.east == q.west]
        res = translate_horizontal(ts)
        if res.bijective:
            assert len(res.corners) == len(pairs)
        else:
            assert len(res.corners) <= len(pairs)


def test_to_dot():
    dot = to_dot(build_transducer(builtin_set("fig3"), HORIZONTAL), name="g")
    assert dot.startswith("digraph g {")
    assert '1 -> 0 [label="1|0"];' in dot
    assert dot.rstrip().endswith("}")
