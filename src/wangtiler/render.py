"""Deterministic SVG rendering of tilings.

Each cell is a unit square scaled to ``cell_px``.  The edge-triangles mode
splits the square along its diagonals into four triangles colored by the
north/west/south/east edge colors; corner-squares mode draws quarter squares
colored by the decoded corner colors of a corner-encoded set.  VOID cells
are hatched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tileset import TileSet, Tiling, VOID, check_tile_ids, decode_corners

DEFAULT_PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
    "#9a6324", "#fffac8", "#800000", "#aaffc3", "#808000", "#ffd8b1",
    "#000075", "#808080", "#b5651d", "#2f4f4f", "#ff1493", "#00ced1",
    "#7fff00", "#dc143c", "#6495ed", "#ff8c00", "#8a2be2", "#20b2aa",
    "#f0e68c", "#ff6347", "#4682b4", "#d2691e", "#9acd32", "#5f9ea0",
)


@dataclass(frozen=True)
class RenderStyle:
    cell_px: int = 32
    palette: tuple[str, ...] = DEFAULT_PALETTE
    draw_mode: str = "edge-triangles"  # or "corner-squares"
    show_ids: bool = False
    corner_alphabet: int | None = None  # n_vc for corner-squares mode


def _hatch_defs() -> str:
    return ('<defs><pattern id="hatch" width="6" height="6" '
            'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
            '<rect width="6" height="6" fill="#f2f2f2"/>'
            '<line x1="0" y1="0" x2="0" y2="6" stroke="#999999" stroke-width="2"/>'
            "</pattern></defs>")


def check_style(ts: TileSet, style: RenderStyle) -> None:
    """Raise ValueError if ``style`` cannot render tilings of ``ts``: a cell
    below 1 px, an unknown draw mode, or more colors than the palette."""
    if style.draw_mode not in ("edge-triangles", "corner-squares"):
        raise ValueError(f"unknown draw mode {style.draw_mode!r}")
    if style.cell_px < 1:
        raise ValueError(f"cell size must be at least 1 px, got {style.cell_px}")
    if style.draw_mode == "edge-triangles":
        if ts.num_colors > len(style.palette):
            raise ValueError(
                f"palette has {len(style.palette)} colors, alphabet needs "
                f"{ts.num_colors}")
    else:
        n_vc = style.corner_alphabet
        if n_vc is None:
            raise ValueError("corner-squares mode needs corner_alphabet set")
        if n_vc > len(style.palette):
            raise ValueError(
                f"palette has {len(style.palette)} colors, corner alphabet "
                f"needs {n_vc}")


def render_svg(ts: TileSet, t: Tiling, style: RenderStyle | None = None) -> str:
    style = style or RenderStyle()
    check_tile_ids(ts, t)
    check_style(ts, style)

    s = style.cell_px
    W, H = t.width * s, t.height * s
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
           f'viewBox="0 0 {W} {H}">', _hatch_defs()]
    pal = style.palette
    for i in range(t.height):
        for j in range(t.width):
            x, y = j * s, i * s
            k = int(t.cells[i, j])
            if k == VOID:
                out.append(f'<rect x="{x}" y="{y}" width="{s}" height="{s}" '
                           'fill="url(#hatch)" stroke="black"/>')
                continue
            tile = ts[k]
            if style.draw_mode == "edge-triangles":
                cx, cy = x + s / 2, y + s / 2
                tris = (
                    (tile.north, f"{x},{y} {x + s},{y} {cx},{cy}"),
                    (tile.west, f"{x},{y} {cx},{cy} {x},{y + s}"),
                    (tile.south, f"{x},{y + s} {cx},{cy} {x + s},{y + s}"),
                    (tile.east, f"{x + s},{y} {x + s},{y + s} {cx},{cy}"),
                )
                for color, points in tris:
                    out.append(f'<polygon points="{points}" '
                               f'fill="{pal[color]}" stroke="black" '
                               'stroke-width="0.5"/>')
            else:
                ct = decode_corners(tile, style.corner_alphabet)
                half = s / 2
                quads = ((ct.nw, x, y), (ct.ne, x + half, y),
                         (ct.sw, x, y + half), (ct.se, x + half, y + half))
                out.append(f'<rect x="{x}" y="{y}" width="{s}" height="{s}" '
                           'fill="white"/>')
                for color, qx, qy in quads:
                    out.append(f'<rect x="{qx}" y="{qy}" width="{half}" '
                               f'height="{half}" fill="{pal[color]}" '
                               'stroke="black" stroke-width="0.5"/>')
            out.append(f'<rect x="{x}" y="{y}" width="{s}" height="{s}" '
                       'fill="none" stroke="black"/>')
            if style.show_ids:
                out.append(f'<text x="{x + s / 2}" y="{y + s / 2}" '
                           'font-size="8" text-anchor="middle" '
                           f'dominant-baseline="middle">{k}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
