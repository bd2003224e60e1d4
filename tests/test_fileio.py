import random

import pytest
from hypothesis import given, strategies as st

import wangtiler as wt
from wangtiler import CornerTile, Tile, TileSet, Tiling, VOID, builtin_set
from wangtiler.fileio import (dumps_corner_set, dumps_tileset, dumps_tiling,
                              load_tileset, load_tiling, loads_corner_set,
                              loads_tileset, loads_tiling, save_tileset,
                              save_tiling)

from helpers import random_tileset


def test_tileset_round_trip_builtin():
    for name in ("fig3", "finite1", "finite2", "ammann16"):
        ts = builtin_set(name)
        back = loads_tileset(dumps_tileset(ts))
        assert back == ts


def test_tileset_file_round_trip(tmp_path):
    ts = builtin_set("finite1")
    path = tmp_path / "finite1.tiles"
    save_tileset(ts, path)
    back = load_tileset(path)
    assert back == ts
    assert back.name == "finite1"


@given(st.data())
def test_tileset_round_trip_random(data):
    seed = data.draw(st.integers(0, 10**6))
    ts = random_tileset(random.Random(seed), max_colors=5, max_tiles=10)
    assert loads_tileset(dumps_tileset(ts)) == ts


def test_tileset_compaction_without_header():
    ts = loads_tileset("5 9 5 9\n9 5 9 5\n")
    assert [t.as_tuple() for t in ts] == [(0, 1, 0, 1), (1, 0, 1, 0)]
    assert ts.num_colors == 2


def test_tileset_header_pins_alphabet():
    ts = loads_tileset("colors 7\n0 2 0 2\n")
    assert ts.num_colors == 7
    assert ts[0].as_tuple() == (0, 2, 0, 2)


def test_tileset_comments_and_errors():
    ts = loads_tileset("# comment\n0 0 0 0  # trailing\n")
    assert len(ts) == 1
    with pytest.raises(ValueError):
        loads_tileset("0 0 0\n")
    with pytest.raises(ValueError):
        loads_tileset("")
    with pytest.raises(ValueError):
        loads_tileset("corners 2\n0 0 0 0\n")
    for header in ("colors", "colors x", "colors 2 3"):
        with pytest.raises(ValueError, match="expected 'colors <n>'"):
            loads_tileset(f"{header}\n0 0 0 0\n")


def test_corner_set_round_trip():
    corners = [CornerTile(0, 1, 2, 3), CornerTile(3, 2, 1, 0)]
    text = dumps_corner_set(corners, 4)
    back, n_vc = loads_corner_set(text)
    assert back == corners and n_vc == 4
    with pytest.raises(ValueError):
        loads_corner_set("0 0 0 0\n")
    for header in ("corners", "corners 2.5"):
        with pytest.raises(ValueError, match="expected 'corners <n>'"):
            loads_corner_set(f"{header}\n0 0 0 0\n")


def test_tiling_round_trip():
    t = Tiling([[0, VOID, 2], [VOID, 1, VOID]])
    text = dumps_tiling(t)
    assert text.splitlines()[0] == "tiling 2 3"
    assert "." in text
    assert loads_tiling(text) == t


def test_tiling_file_round_trip(tmp_path):
    t = Tiling([[5, VOID], [0, 1]])
    path = tmp_path / "t.tiling"
    save_tiling(t, path)
    assert load_tiling(path) == t


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6))
def test_tiling_round_trip_random(h, w, seed):
    rng = random.Random(seed)
    cells = [[rng.randint(-1, 6) for _ in range(w)] for _ in range(h)]
    t = Tiling(cells)
    assert loads_tiling(dumps_tiling(t)) == t


def test_tiling_format_errors():
    with pytest.raises(ValueError):
        loads_tiling("0 1\n")
    with pytest.raises(ValueError):
        loads_tiling("tiling 2 2\n0 1\n")
    with pytest.raises(ValueError):
        loads_tiling("tiling 1 2\n0\n")
    for header in ("tiling", "tiling 2", "tiling 2 x"):
        with pytest.raises(ValueError, match="expected 'tiling <h> <w>'"):
            loads_tiling(f"{header}\n0 0\n")
