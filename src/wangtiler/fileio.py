"""Text formats for tile sets, corner sets and tilings.

Tile set files: one ``n w s e`` quadruple per line, ``#`` comments, and an
optional ``colors <n>`` header pinning the alphabet size.  Without the
header, colors are compacted onto a dense 0-based alphabet in value order.
Corner sets use the same layout with a mandatory ``corners <n>`` header.
Tiling files: a ``tiling <height> <width>`` header, then one row per line
with tile ids or ``.`` for VOID.
"""

from __future__ import annotations

import os

from .tileset import CornerTile, Tile, TileSet, Tiling, VOID


def _read_rows(text: str, header: str, required: bool = True
               ) -> tuple[list[int] | None, list[list[str]]]:
    """The integer values of the ``header`` line, written like ``tiling <h>
    <w>`` (None if an optional header is absent), and the fields of each
    data line after it; a header with bad values names the header."""
    rows = [line.split() for raw in text.splitlines()
            if (line := raw.split("#", 1)[0].strip())]
    keyword = header.split()[0]
    if not rows or rows[0][0] != keyword:
        if required:
            raise ValueError(f"the file must start with a '{header}' header")
        return None, rows
    values = rows[0][1:]
    try:
        if len(values) != header.count("<"):
            raise ValueError
        return [int(v) for v in values], rows[1:]
    except ValueError:
        raise ValueError(f"bad header {' '.join(rows[0])!r}: expected "
                         f"'{header}'") from None


def _quads(rows: list[list[str]], what: str) -> list[tuple[int, ...]]:
    for parts in rows:
        if len(parts) != 4:
            raise ValueError(f"expected 4 {what} colors per line, "
                             f"got {' '.join(parts)!r}")
    return [tuple(int(p) for p in parts) for parts in rows]


def dumps_tileset(ts: TileSet) -> str:
    lines = [f"colors {ts.num_colors}"]
    lines += [f"{t.north} {t.west} {t.south} {t.east}" for t in ts]
    return "\n".join(lines) + "\n"


def loads_tileset(text: str, name: str = "") -> TileSet:
    header, rows = _read_rows(text, "colors <n>", required=False)
    if rows and rows[0][0] == "corners":
        raise ValueError("this is a corner-set file, not an edge tile set")
    quads = _quads(rows, "edge")
    if not quads:
        raise ValueError("tile set file contains no tiles")
    num_colors = header[0] if header else None
    if num_colors is None:
        # Compact arbitrary labels onto a dense alphabet.
        palette = sorted({c for q in quads for c in q})
        remap = {c: i for i, c in enumerate(palette)}
        quads = [tuple(remap[c] for c in q) for q in quads]
        num_colors = len(palette)
    return TileSet((Tile(*q) for q in quads), num_colors=num_colors, name=name)


def dumps_corner_set(corners, n_vc: int) -> str:
    lines = [f"corners {n_vc}"]
    lines += [f"{c.nw} {c.sw} {c.se} {c.ne}" for c in corners]
    return "\n".join(lines) + "\n"


def loads_corner_set(text: str) -> tuple[list[CornerTile], int]:
    header, rows = _read_rows(text, "corners <n>", required=False)
    if header is None:
        loads_tileset(text)  # names the fault of a file that is neither
        raise ValueError("the input is already an edge tile set")
    (n_vc,) = header
    return [CornerTile(*q) for q in _quads(rows, "corner")], n_vc


def dumps_tiling(t: Tiling) -> str:
    lines = [f"tiling {t.height} {t.width}"]
    for row in t.cells:
        lines.append(" ".join("." if v == VOID else str(v) for v in row))
    return "\n".join(lines) + "\n"


def loads_tiling(text: str) -> Tiling:
    (h, w), rows = _read_rows(text, "tiling <h> <w>")
    if len(rows) != h:
        raise ValueError(f"expected {h} rows, got {len(rows)}")
    for i, parts in enumerate(rows):
        if len(parts) != w:
            raise ValueError(f"row {i + 1} has {len(parts)} entries, expected {w}")
    return Tiling([[VOID if p == "." else int(p) for p in parts]
                   for parts in rows])


def save_tileset(ts: TileSet, path: str | os.PathLike) -> None:
    with open(path, "w") as f:
        f.write(dumps_tileset(ts))


def load_tileset(path: str | os.PathLike) -> TileSet:
    with open(path) as f:
        name = os.path.splitext(os.path.basename(path))[0]
        return loads_tileset(f.read(), name=name)


def save_tiling(t: Tiling, path: str | os.PathLike) -> None:
    with open(path, "w") as f:
        f.write(dumps_tiling(t))


def load_tiling(path: str | os.PathLike) -> Tiling:
    with open(path) as f:
        return loads_tiling(f.read())
