"""Tiles, tile sets, tilings and the built-in benchmark sets.

Conventions used throughout the package:

* colors are 0-based integers below ``TileSet.num_colors``;
* a tile is the edge-color quadruple ``(north, west, south, east)``;
* grid coordinates are 1-based ``(i, j)`` with row 1 at the top and
  column 1 at the left;
* an empty grid cell is the explicit ``VOID`` marker (-1), never a tile id.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError, StructuralError, integer

#: Cell marker for an intentionally empty position.
VOID = -1


@dataclass(frozen=True, order=True)
class Tile:
    """An edge-colored unit square; matching happens on shared edges."""

    north: int
    west: int
    south: int
    east: int

    def __post_init__(self) -> None:
        for c in (self.north, self.west, self.south, self.east):
            if c < 0:
                raise ValueError(f"edge colors must be non-negative, got {self}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.north, self.west, self.south, self.east)

    def reflected(self) -> "Tile":
        """Reflection along the main diagonal: (n, w, s, e) -> (w, n, e, s)."""
        return Tile(self.west, self.north, self.east, self.south)


@dataclass(frozen=True, order=True)
class CornerTile:
    """A corner-colored unit square; matching happens on shared corners."""

    nw: int
    sw: int
    se: int
    ne: int

    def __post_init__(self) -> None:
        for c in (self.nw, self.sw, self.se, self.ne):
            if c < 0:
                raise ValueError(f"corner colors must be non-negative, got {self}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.nw, self.sw, self.se, self.ne)


class TileSet:
    """An ordered collection of distinct tiles over a fixed color alphabet.

    The tile index in ``tiles`` is the tile id used by every solver, tiling
    and report in this package.  Duplicate quadruples are rejected: packing
    semantics depend on tile identity, so silently merging them would be
    wrong.  Instances are immutable and safe to share across threads.
    """

    def __init__(self, tiles: Iterable[Tile], num_colors: int | None = None,
                 name: str = ""):
        self.tiles: tuple[Tile, ...] = tuple(
            t if isinstance(t, Tile) else Tile(*t) for t in tiles
        )
        if not self.tiles:
            raise ValueError("a tile set must contain at least one tile")
        seen: dict[tuple[int, int, int, int], int] = {}
        for k, t in enumerate(self.tiles):
            q = t.as_tuple()
            if q in seen:
                raise ValueError(f"duplicate tile {q} at ids {seen[q]} and {k}")
            seen[q] = k
        used = max(max(t.as_tuple()) for t in self.tiles) + 1
        if num_colors is None:
            num_colors = used
        if num_colors < used:
            raise ValueError(f"num_colors={num_colors} < {used} colors used")
        self.num_colors = int(num_colors)
        self.name = name
        # Per-edge id->color tuples; hot loops index these instead of Tile.
        self.norths = tuple(t.north for t in self.tiles)
        self.wests = tuple(t.west for t in self.tiles)
        self.souths = tuple(t.south for t in self.tiles)
        self.easts = tuple(t.east for t in self.tiles)
        self._reflected: TileSet | None = None
        # the row kernel, built and shared by the cover heuristics
        self._kernel = None

    def __getstate__(self) -> dict:
        # The kernel is a cache that holds a lock: a copy or a pickle
        # starts without it and builds its own on use.
        return {**self.__dict__, "_kernel": None}

    def side(self, s: str) -> tuple[int, ...]:
        """The id->color tuple of side ``s``, one of "n", "w", "s", "e"."""
        return {"n": self.norths, "w": self.wests,
                "s": self.souths, "e": self.easts}[s]

    def __len__(self) -> int:
        return len(self.tiles)

    def __getitem__(self, k: int) -> Tile:
        return self.tiles[k]

    def __iter__(self) -> Iterator[Tile]:
        return iter(self.tiles)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TileSet) and self.tiles == other.tiles
                and self.num_colors == other.num_colors)

    def __repr__(self) -> str:
        label = self.name or "tileset"
        return f"TileSet({label!r}, {len(self)} tiles / {self.num_colors} colors)"

    def reflected(self) -> "TileSet":
        """The diagonally reflected set; its rows are this set's columns.

        Built once and linked back, so reflecting it again gives this set.
        """
        if self._reflected is None:
            other = TileSet((t.reflected() for t in self.tiles),
                            num_colors=self.num_colors,
                            name=f"{self.name}^T" if self.name else "")
            other._reflected, self._reflected = self, other
        return self._reflected


class Tiling:
    """A rectangular grid of tile ids with explicit VOID cells.

    ``cells`` is a read-only ``(height, width)`` int array; ``cells[0, 0]``
    corresponds to the 1-based coordinate (1, 1) at the top-left.
    """

    def __init__(self, cells: np.ndarray | list):
        arr = np.array(cells, dtype=np.int32)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("cells must be a non-empty 2D array")
        if (arr < VOID).any():
            raise ValueError("cells must hold tile ids or VOID")
        arr.setflags(write=False)
        self.cells = arr

    @classmethod
    def filled(cls, height: int, width: int, value: int = VOID) -> "Tiling":
        message = "tiling dimensions must be integers"
        height, width = integer(height, message), integer(width, message)
        if height < 1 or width < 1:
            raise ConfigurationError("tiling dimensions must be positive")
        return cls(np.full((height, width), value, dtype=np.int32))

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    def get(self, i: int, j: int) -> int:
        """Tile id (or VOID) at 1-based coordinate (i, j)."""
        if not (1 <= i <= self.height and 1 <= j <= self.width):
            raise IndexError(f"coordinate ({i}, {j}) outside the grid")
        return int(self.cells[i - 1, j - 1])

    @property
    def placed(self) -> int:
        """Number of non-VOID cells."""
        return int((self.cells != VOID).sum())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tiling) and np.array_equal(self.cells, other.cells)

    def __repr__(self) -> str:
        return f"Tiling({self.height}x{self.width}, {self.placed} placed)"


class Mismatch(NamedTuple):
    first: tuple[int, int]
    second: tuple[int, int]
    axis: str  # "vertical" (south/north) or "horizontal" (east/west)


@dataclass(frozen=True)
class ValidityReport:
    is_valid: bool
    mismatches: tuple[Mismatch, ...]


def check_tile_ids(ts: TileSet, t: Tiling) -> None:
    """Raise ``StructuralError`` when ``t`` holds a tile id outside ``ts``."""
    if t.cells.max(initial=VOID) >= len(ts):
        raise StructuralError(
            f"tiling references tile id {int(t.cells.max())} "
            f"outside the {len(ts)}-tile set")


def validate_tiling(ts: TileSet, t: Tiling) -> ValidityReport:
    """Check all shared edges of ``t`` against the matching rules of ``ts``.

    VOID cells satisfy every adjacency vacuously, so a report with
    ``is_valid=True`` means the placed tiles form a valid (possibly
    disconnected) partial tiling.  Each violating adjacent pair appears in
    ``mismatches`` exactly once, ordered row-major by the first coordinate.
    """
    check_tile_ids(ts, t)
    cells = t.cells
    placed = cells != VOID
    easts, wests, souths, norths = (np.append(side, -1)[cells] for side in
                                    (ts.easts, ts.wests, ts.souths, ts.norths))
    horizontal = placed[:, :-1] & placed[:, 1:] & (easts[:, :-1] != wests[:, 1:])
    vertical = placed[:-1] & placed[1:] & (souths[:-1] != norths[1:])
    # (row, column, 0 for horizontal or 1 for vertical), in the report's
    # order; the second cell is east of (0) or below (1) the first
    hits = sorted([(i, j, 0) for i, j in np.argwhere(horizontal).tolist()]
                  + [(i, j, 1) for i, j in np.argwhere(vertical).tolist()])
    mismatches = tuple(Mismatch((i + 1, j + 1), (i + 1 + v, j + 2 - v),
                                ("horizontal", "vertical")[v]) for i, j, v in hits)
    return ValidityReport(not mismatches, mismatches)


def corner_to_wang(cts: Iterable[CornerTile], n_vc: int) -> TileSet:
    """Encode corner tiles as edge tiles over the pair alphabet of size n_vc**2.

    Each edge color packs the two corner colors along that edge
    (``north = nw + ne*n_vc`` and so on), so corner agreement of adjacent
    tiles is exactly edge agreement of the converted tiles.
    """
    if n_vc < 1:
        raise ValueError("corner alphabet size must be positive")
    tiles = []
    for ct in cts:
        if not isinstance(ct, CornerTile):
            ct = CornerTile(*ct)
        if max(ct.as_tuple()) >= n_vc:
            raise ValueError(f"corner color out of range in {ct} (n_vc={n_vc})")
        tiles.append(Tile(north=ct.nw + ct.ne * n_vc,
                          west=ct.nw + ct.sw * n_vc,
                          south=ct.sw + ct.se * n_vc,
                          east=ct.ne + ct.se * n_vc))
    return TileSet(tiles, num_colors=n_vc * n_vc, name=f"corners{n_vc}")


def decode_corners(t: Tile, n_vc: int) -> CornerTile:
    """The corner tile that :func:`corner_to_wang` encodes as ``t``."""
    if n_vc < 1:
        raise ValueError("corner alphabet size must be positive")
    nw, ne = t.north % n_vc, t.north // n_vc
    sw, se = t.south % n_vc, t.south // n_vc
    if t.west != nw + sw * n_vc or t.east != ne + se * n_vc:
        raise ValueError(f"tile {t.as_tuple()} is not corner-encoded for n_vc={n_vc}")
    return CornerTile(nw, sw, se, ne)


def wang_to_corner(ts: TileSet, n_vc: int) -> list[CornerTile]:
    """Inverse of :func:`corner_to_wang` for sets using the pair encoding."""
    return [decode_corners(t, n_vc) for t in ts]


def complete_stochastic_set(n_c: int) -> TileSet:
    """All n_c**4 edge-color combinations, in lexicographic (n, w, s, e) order."""
    if n_c < 1:
        raise ValueError("number of colors must be positive")
    rng = range(n_c)
    tiles = [Tile(n, w, s, e) for n, w, s, e in itertools.product(rng, rng, rng, rng)]
    return TileSet(tiles, num_colors=n_c, name=f"complete{n_c}")


# Built-in published sets, transcribed as (north, west, south, east) quadruples.
_FIG3 = ((0, 1, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1))

_FINITE1 = ((1, 3, 1, 1), (2, 3, 2, 1), (0, 0, 1, 0), (1, 0, 2, 3),
            (2, 1, 2, 0), (2, 1, 0, 1), (1, 3, 1, 0))

# 16 tiles over 16 colors, read row-major from the published figure.
_FINITE2 = ((11, 2, 11, 6), (11, 4, 14, 6), (14, 7, 11, 5), (14, 8, 14, 1),
            (11, 8, 14, 0), (14, 9, 14, 5), (13, 8, 15, 2), (15, 9, 15, 7),
            (15, 7, 13, 7), (15, 6, 15, 4), (10, 5, 15, 7), (15, 6, 10, 8),
            (12, 5, 15, 9), (10, 1, 12, 8), (10, 0, 10, 8), (12, 5, 10, 3))

# The 16-tile, 6-color Ammann set, one tile per transducer arc
# w -(s|n)-> e, in the published arc order.
_AMMANN16 = ((0, 0, 1, 1), (4, 0, 3, 0), (2, 1, 5, 1), (4, 1, 2, 0),
             (3, 1, 5, 0), (2, 2, 3, 3), (5, 2, 3, 2), (3, 2, 3, 4),
             (1, 2, 1, 5), (5, 5, 2, 2), (3, 3, 4, 4), (1, 3, 0, 5),
             (2, 5, 2, 3), (2, 3, 4, 3), (1, 4, 0, 2), (0, 4, 0, 3))

_BUILTINS: dict[str, tuple[tuple[tuple[int, int, int, int], ...], int]] = {
    "fig3": (_FIG3, 2),
    "finite1": (_FINITE1, 4),
    "finite2": (_FINITE2, 16),
    "ammann16": (_AMMANN16, 6),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin_set(name: str) -> TileSet:
    """One of the published benchmark sets: fig3, finite1, finite2, ammann16."""
    try:
        quads, n_c = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown built-in tile set {name!r}; "
                       f"choose from {', '.join(builtin_names())}") from None
    return TileSet((Tile(*q) for q in quads), num_colors=n_c, name=name)
