import hashlib

import pytest

import wangtiler as wt
from wangtiler import StructuralError, Tile, TileSet, Tiling, VOID, builtin_set
from wangtiler.render import DEFAULT_PALETTE, RenderStyle, render_svg


def test_single_tile_four_distinct_triangles():
    ts = TileSet([Tile(0, 1, 2, 3)], num_colors=4)
    svg = render_svg(ts, Tiling([[0]]))
    triangle_fills = [line.split('fill="')[1].split('"')[0]
                      for line in svg.splitlines() if line.startswith("<polygon")]
    assert len(set(triangle_fills)) == 4
    assert svg.count("<polygon") == 4


def test_all_void_renders_hatched():
    ts = builtin_set("fig3")
    svg = render_svg(ts, Tiling.filled(2, 2))
    assert svg.count('fill="url(#hatch)"') == 4
    assert "<polygon" not in svg


def test_palette_too_small():
    ts = builtin_set("finite2")  # 16 colors
    style = RenderStyle(palette=DEFAULT_PALETTE[:8])
    with pytest.raises(ValueError):
        render_svg(ts, Tiling([[0]]), style)


def test_tile_id_outside_the_set_is_structural_error():
    ts = builtin_set("fig3")
    with pytest.raises(StructuralError, match="tile id 7"):
        render_svg(ts, Tiling([[0, 1], [7, 2]]))


def test_show_ids():
    ts = builtin_set("fig3")
    svg = render_svg(ts, Tiling([[2]]), RenderStyle(show_ids=True))
    assert ">2</text>" in svg


def test_deterministic_output():
    ts = builtin_set("fig3")
    t = Tiling([[0, VOID], [1, 2]])
    assert render_svg(ts, t) == render_svg(ts, t)


def test_corner_squares_mode():
    corners = wt.translate_horizontal(builtin_set("ammann16"))
    ts = wt.corner_to_wang(corners.corners, corners.n_vc)
    style = RenderStyle(draw_mode="corner-squares", corner_alphabet=6)
    svg = render_svg(ts, Tiling([[0, 1]]))
    svg_c = render_svg(ts, Tiling([[0]]), style)
    assert svg_c.count("<rect") > svg.count("<rect")
    with pytest.raises(ValueError):
        render_svg(ts, Tiling([[0]]), RenderStyle(draw_mode="corner-squares"))
    with pytest.raises(ValueError):
        render_svg(builtin_set("fig3"), Tiling([[0]]),
                   RenderStyle(draw_mode="corner-squares", corner_alphabet=2))
    with pytest.raises(ValueError, match="corner alphabet size"):
        render_svg(ts, Tiling([[0]]),
                   RenderStyle(draw_mode="corner-squares", corner_alphabet=0))


@pytest.mark.parametrize("style, message", [
    (RenderStyle(draw_mode="hexagons"), "unknown draw mode 'hexagons'"),
    (RenderStyle(draw_mode="corner-squares", corner_alphabet=len(DEFAULT_PALETTE) + 1),
     f"palette has {len(DEFAULT_PALETTE)} colors, corner alphabet needs "
     f"{len(DEFAULT_PALETTE) + 1}"),
])
def test_style_that_cannot_draw_the_set(style, message):
    with pytest.raises(ValueError, match=message):
        render_svg(builtin_set("fig3"), Tiling([[0]]), style)


def test_cell_px_must_be_positive():
    for cell_px in (0, -4):
        with pytest.raises(ValueError, match="cell size"):
            render_svg(builtin_set("fig3"), Tiling([[0]]),
                       RenderStyle(cell_px=cell_px))


def test_ammann_torus_snapshot():
    # Locked after the first verified render of a discovered periodic tiling.
    corners = wt.translate_horizontal(builtin_set("ammann16"))
    ts = wt.corner_to_wang(corners.corners, corners.n_vc)
    witness = wt.smallest_torus(ts, 6).witnesses[0]
    report = wt.validate_tiling(ts, witness)
    assert report.is_valid
    svg = render_svg(ts, witness)
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == "0c318564f5cb1aa3482260cab8e5ce35fb34a14f2350b0af7678695e4633d95e"
