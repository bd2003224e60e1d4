import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wangtiler as wt
from wangtiler import (CornerTile, StructuralError, Tile, TileSet, Tiling,
                       VOID, builtin_set, complete_stochastic_set,
                       corner_to_wang, validate_tiling, wang_to_corner)
from wangtiler.bench import BenchConfig
from wangtiler.fileio import dumps_tileset
from wangtiler.tileset import decode_corners


def test_tile_and_tileset_basics():
    ts = TileSet([Tile(0, 1, 1, 0), Tile(0, 1, 0, 1)], num_colors=2, name="t")
    assert len(ts) == 2
    assert ts[1].as_tuple() == (0, 1, 0, 1)
    assert ts.norths == (0, 0)
    assert list(ts)[0] == Tile(0, 1, 1, 0)


def test_duplicate_tiles_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        TileSet([Tile(0, 0, 0, 0), Tile(0, 0, 0, 0)])


def test_num_colors_must_cover_used_colors():
    with pytest.raises(ValueError):
        TileSet([Tile(0, 0, 0, 3)], num_colors=2)
    ts = TileSet([Tile(0, 0, 0, 3)])
    assert ts.num_colors == 4


def test_tiling_accessors_and_immutability():
    t = Tiling([[0, VOID], [1, 2]])
    assert (t.height, t.width) == (2, 2)
    assert t.get(1, 2) == VOID
    assert t.get(2, 1) == 1
    assert t.placed == 3
    with pytest.raises(ValueError):
        t.cells[0, 0] = 5
    with pytest.raises(IndexError):
        t.get(0, 1)
    with pytest.raises(ValueError):
        Tiling([[-5]])


@pytest.mark.parametrize("make, message", [
    (lambda: Tile(0, -1, 0, 0), "edge colors must be non-negative"),
    (lambda: CornerTile(0, 0, -1, 0), "corner colors must be non-negative"),
    (lambda: TileSet([]), "at least one tile"),
    (lambda: Tiling([0, 1]), "non-empty 2D array"),
    (lambda: Tiling(np.empty((0, 3))), "non-empty 2D array"),
    (lambda: Tiling.filled(0, 3), "tiling dimensions must be positive"),
    (lambda: Tiling.filled(2.0, 3), "tiling dimensions must be integers"),
    (lambda: Tiling.filled(2, 3, 0.5), "cells must be integer tile ids"),
    (lambda: Tile(0.5, 0, 0, 0), "edge colors must be non-negative integers"),
    (lambda: Tile("a", 0, 0, 0), "edge colors must be non-negative integers"),
    (lambda: CornerTile(0, 1.0, 0, 0), "corner colors must be non-negative integers"),
    (lambda: TileSet([Tile(0, 1, 0, 1)], num_colors=2.5), "num_colors must be an integer"),
    (lambda: complete_stochastic_set(2.0), "number of colors must be an integer"),
    (lambda: corner_to_wang([CornerTile(0, 1, 1, 0)], 1.5),
     "corner alphabet size must be an integer"),
    (lambda: decode_corners(Tile(0, 0, 0, 0), 2.0), "corner alphabet size must be an integer"),
    (lambda: Tiling([[0.5, 1]]), "cells must be integer tile ids, got dtype float64"),
    (lambda: Tiling([["1", "0"]]), "cells must be integer tile ids"),
    (lambda: Tiling([[True, False]]), "cells must be integer tile ids, got dtype bool"),
    (lambda: Tiling([[2**40]]), "cells must hold tile ids or VOID that fit int32"),
    (lambda: Tiling([[0, 1]]).get(1.0, 1), "coordinates must be integers"),
])
def test_constructors_reject_what_they_cannot_hold(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_numpy_integers_are_integers():
    tile = Tile(np.int64(1), np.int32(0), 0, 0)
    assert tile == Tile(1, 0, 0, 0)
    ts = TileSet([tile], num_colors=np.int64(3))
    assert ts.num_colors == 3 and type(ts.num_colors) is int
    assert complete_stochastic_set(np.int64(1)).name == "complete1"
    assert corner_to_wang([CornerTile(0, 1, 1, 0)], np.int64(2)).num_colors == 4
    assert decode_corners(Tile(0, 0, 0, 0), np.int32(2)) == CornerTile(0, 0, 0, 0)
    tiling = Tiling(np.array([[2, VOID]], dtype=np.int64))
    assert tiling.cells.dtype == np.int32 and tiling.get(np.int64(1), np.int32(1)) == 2
    assert Tiling.filled(np.int64(2), np.int32(1)).height == 2
    config = BenchConfig(sets=(), sizes=(), seeds=np.int64(2), seed_base=np.int32(-1))
    assert (config.seeds, config.seed_base) == (2, -1) and type(config.seeds) is int
    with pytest.raises(wt.ConfigurationError):  # which is a ValueError
        Tile(0.5, 0, 0, 0)


def test_validate_tiling_fig3_pair():
    # east of (0,1,0,1) is 1 and meets west 1 of (0,1,1,0)
    ts = builtin_set("fig3")
    rep = validate_tiling(ts, Tiling([[1, 0]]))
    assert rep.is_valid and rep.mismatches == ()
    rep = validate_tiling(ts, Tiling([[0, 1]]))
    assert not rep.is_valid


def test_validate_tiling_single_tile_and_all_void():
    ts = builtin_set("fig3")
    for k in range(len(ts)):
        assert validate_tiling(ts, Tiling([[k]])).is_valid
    assert validate_tiling(ts, Tiling.filled(2, 2)).is_valid


def test_validate_tiling_reports_each_bad_pair_once():
    ts = TileSet([Tile(0, 0, 0, 0), Tile(1, 1, 1, 1)], num_colors=2)
    rep = validate_tiling(ts, Tiling([[0, 1], [1, 1]]))
    assert not rep.is_valid
    pairs = {(m.first, m.second, m.axis) for m in rep.mismatches}
    assert ((1, 1), (1, 2), "horizontal") in pairs
    assert ((1, 1), (2, 1), "vertical") in pairs
    assert len(rep.mismatches) == len(pairs)


def test_validate_tiling_void_neighbors_never_mismatch():
    ts = TileSet([Tile(0, 0, 0, 0), Tile(1, 1, 1, 1)], num_colors=2)
    assert validate_tiling(ts, Tiling([[0, VOID], [VOID, 1]])).is_valid


def test_validate_tiling_alphabet_mismatch():
    ts = builtin_set("fig3")
    with pytest.raises(StructuralError):
        validate_tiling(ts, Tiling([[7]]))


def test_corner_to_wang_all_zero():
    ts = corner_to_wang([CornerTile(0, 0, 0, 0)], n_vc=2)
    assert ts[0].as_tuple() == (0, 0, 0, 0)
    assert ts.num_colors == 4


def test_corner_to_wang_published_example():
    ts = corner_to_wang([CornerTile(2, 3, 0, 1)], n_vc=6)
    assert ts[0].as_tuple() == (8, 20, 3, 1)


def test_corner_to_wang_rejects_out_of_range():
    with pytest.raises(ValueError):
        corner_to_wang([CornerTile(0, 0, 0, 3)], n_vc=3)
    with pytest.raises(ValueError):
        corner_to_wang([CornerTile(0, 0, 0, 0)], n_vc=0)
    with pytest.raises(ValueError, match="corner alphabet size"):
        wang_to_corner(corner_to_wang([CornerTile(0, 0, 0, 0)], n_vc=2), 0)


def test_corner_to_wang_injective_over_full_alphabet():
    n_vc = 3
    corners = [CornerTile(*q) for q in itertools.product(range(n_vc), repeat=4)]
    ts = corner_to_wang(corners, n_vc)
    assert len({t.as_tuple() for t in ts}) == len(corners)
    assert wang_to_corner(ts, n_vc) == corners


@given(st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=1, max_size=16,
                unique=True))
def test_corner_to_wang_injective_batches(quads):
    corners = [CornerTile(*q) for q in quads]
    ts = corner_to_wang(corners, n_vc=2)
    assert len({t.as_tuple() for t in ts}) == len(corners)


def test_corner_conversion_preserves_matching_exhaustively():
    # Every 2x2 arrangement of 2-color corner tiles: corner agreement at the
    # shared corners must coincide with edge agreement after conversion.
    n_vc = 2
    corners = [CornerTile(*q) for q in itertools.product(range(n_vc), repeat=4)]
    ts = corner_to_wang(corners, n_vc)

    def corners_agree(tl, tr, bl, br):
        return (tl.ne == tr.nw and tl.se == tr.sw
                and bl.ne == br.nw and bl.se == br.sw
                and tl.sw == bl.nw and tl.se == bl.ne
                and tr.sw == br.nw and tr.se == br.ne)

    ids = range(len(corners))
    for a, b, c, d in itertools.product(ids, repeat=4):
        expect = corners_agree(corners[a], corners[b], corners[c], corners[d])
        got = validate_tiling(ts, Tiling([[a, b], [c, d]])).is_valid
        assert got == expect


@pytest.mark.parametrize("n_c,count", [(1, 1), (2, 16), (3, 81), (4, 256)])
def test_complete_set_sizes(n_c, count):
    ts = complete_stochastic_set(n_c)
    assert len(ts) == count
    assert ts.num_colors == n_c


def test_complete_set_lexicographic_order():
    ts = complete_stochastic_set(3)
    assert ts[0].as_tuple() == (0, 0, 0, 0)
    assert ts[-1].as_tuple() == (2, 2, 2, 2)
    assert list(ts.tiles) == sorted(ts.tiles)


def test_complete_set_rejects_zero_colors():
    with pytest.raises(ValueError):
        complete_stochastic_set(0)


def test_complete_set_greedy_fill_always_extends():
    # Any west/north pair has a matching tile, so a greedy row-major fill
    # can never get stuck and yields a valid tiling of any rectangle.
    ts = complete_stochastic_set(2)
    lookup = {(t.west, t.north): k for k, t in enumerate(ts)}
    h, w = 5, 7
    cells = np.zeros((h, w), dtype=np.int32)
    for i in range(h):
        for j in range(w):
            west = ts.easts[cells[i, j - 1]] if j else 0
            north = ts.souths[cells[i - 1, j]] if i else 0
            cells[i, j] = lookup[(west, north)]
    assert validate_tiling(ts, Tiling(cells)).is_valid


def test_builtin_fig3():
    ts = builtin_set("fig3")
    assert ts[0].as_tuple() == (0, 1, 1, 0)
    assert [t.as_tuple() for t in ts] == [(0, 1, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1)]
    assert ts.num_colors == 2


def test_builtin_finite1():
    ts = builtin_set("finite1")
    assert len(ts) == 7 and ts.num_colors == 4
    assert ts[0].as_tuple() == (1, 3, 1, 1)


def test_builtin_finite2_checksum():
    # Locks the 16-tile transcription; regenerate only with a verified source.
    ts = builtin_set("finite2")
    assert len(ts) == 16 and ts.num_colors == 16
    digest = hashlib.sha256(dumps_tileset(ts).encode()).hexdigest()
    assert digest == "fc95cc6f2bd4eec3fdffcd0b02c43b4588d1a185cba3486f635722638ce1b6df"


def test_builtin_ammann16():
    ts = builtin_set("ammann16")
    assert len(ts) == 16 and ts.num_colors == 6
    g = wt.build_transducer(ts, wt.HORIZONTAL)
    arcs = {(a.from_state, a.to_state, a.input, a.output) for a in g.arcs}
    assert len(arcs) == 16
    assert (1, 0, 2, 4) in arcs and (1, 0, 5, 3) in arcs


def test_builtin_unknown_name():
    with pytest.raises(KeyError):
        builtin_set("nope")


def test_reflected_tileset_roundtrip():
    rng = random.Random(1)
    from helpers import random_tileset
    for _ in range(20):
        ts = random_tileset(rng)
        back = ts.reflected().reflected()
        assert [t.as_tuple() for t in back] == [t.as_tuple() for t in ts]
